//! The `Water` benchmark: molecular dynamics on CRL, after the SPLASH
//! particle code (paper data set: 512 molecules, 3 iterations).
//!
//! Molecules are partitioned into per-node CRL regions. Each iteration
//! every node reads all molecule regions, evaluates short-range pairwise
//! (Lennard-Jones-style, cutoff) forces for its own molecules against the
//! snapshot, integrates, and writes back its region. Compared to Barnes
//! the problem is smaller and the per-interaction work larger, giving the
//! longer `T_betw` and `T_hand` seen in Table 6.

// 3-component vector math reads best with explicit dimension indices.
#![allow(clippy::needless_range_loop)]

use std::cell::Cell;
use std::sync::Arc;

use fugu_crl::Crl;
use fugu_sim::rng::DetRng;
use udm::{Envelope, JobSpec, Program, Sim, UserCtx};

use crate::sync::{f32bits, MsgBarrier};

/// Words per molecule: x, y, z, vx, vy, vz.
const MOL_WORDS: usize = 6;

/// Parameters of the Water benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaterParams {
    /// Number of molecules (paper: 512; scaled default 128).
    pub molecules: usize,
    /// Iterations (paper: 3, measuring the third).
    pub iters: u32,
    /// Interaction cutoff radius (box is the unit cube, periodic).
    pub cutoff: f32,
    /// Integration step.
    pub dt: f32,
    /// Cycles charged per pair distance check.
    pub pair_check_cost: u64,
    /// Cycles charged per within-cutoff interaction.
    pub interact_cost: u64,
    /// RNG seed for initial conditions.
    pub seed: u64,
}

impl Default for WaterParams {
    fn default() -> Self {
        WaterParams {
            molecules: 128,
            iters: 3,
            cutoff: 0.3,
            dt: 0.002,
            pair_check_cost: 6,
            interact_cost: 80,
            seed: 11,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Mol {
    pos: [f32; 3],
    vel: [f32; 3],
}

/// The Water program. [`WaterApp::checksum`] is identical across node
/// counts for fixed parameters.
pub struct WaterApp {
    params: WaterParams,
    crl: Crl,
    barrier: MsgBarrier,
    checksum: Cell<Option<u64>>,
}

impl WaterApp {
    /// Builds the program for `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics unless `molecules` divides evenly among nodes.
    pub fn new(nodes: usize, params: WaterParams) -> Self {
        assert!(
            params.molecules.is_multiple_of(nodes),
            "molecules must divide among nodes"
        );
        WaterApp {
            params,
            crl: Crl::new(nodes),
            barrier: MsgBarrier::new(nodes),
            checksum: Cell::new(None),
        }
    }

    /// Job spec named "water".
    pub fn spec(nodes: usize, params: WaterParams) -> Arc<WaterApp> {
        Arc::new(WaterApp::new(nodes, params))
    }

    /// Wraps an `Arc`'d app into a job spec.
    pub fn job(app: &Arc<WaterApp>) -> JobSpec {
        JobSpec::new("water", Arc::clone(app) as Arc<dyn Program>)
    }

    /// Bitwise checksum of final positions.
    pub fn checksum(&self) -> Option<u64> {
        self.checksum.get()
    }

    /// CRL request retries fired by the timeout protocol (chaos runs).
    pub fn crl_retries(&self) -> u64 {
        self.crl.retries()
    }

    fn initial(&self) -> Vec<Mol> {
        let mut rng = DetRng::new(self.params.seed);
        (0..self.params.molecules)
            .map(|_| Mol {
                pos: [rng.f64() as f32, rng.f64() as f32, rng.f64() as f32],
                vel: [
                    rng.range_f64(-0.05, 0.05) as f32,
                    rng.range_f64(-0.05, 0.05) as f32,
                    rng.range_f64(-0.05, 0.05) as f32,
                ],
            })
            .collect()
    }

    fn encode(ms: &[Mol]) -> Vec<u32> {
        let mut fs = Vec::with_capacity(ms.len() * MOL_WORDS);
        for m in ms {
            fs.extend_from_slice(&m.pos);
            fs.extend_from_slice(&m.vel);
        }
        f32bits::encode(&fs)
    }

    fn decode(ws: &[u32]) -> Vec<Mol> {
        let fs = f32bits::decode(ws);
        fs.chunks_exact(MOL_WORDS)
            .map(|c| Mol {
                pos: [c[0], c[1], c[2]],
                vel: [c[3], c[4], c[5]],
            })
            .collect()
    }

    /// Minimum-image displacement in the unit periodic box.
    fn min_image(a: f32, b: f32) -> f32 {
        let mut d = a - b;
        if d > 0.5 {
            d -= 1.0;
        } else if d < -0.5 {
            d += 1.0;
        }
        d
    }
}

impl Program for WaterApp {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            let me = ctx.node();
            let p = ctx.nodes();
            let per = self.params.molecules / p;
            let cutoff2 = self.params.cutoff * self.params.cutoff;

            let init = self.initial();
            for r in 0..p {
                self.crl
                    .create(ctx, r as u32, &Self::encode(&init[r * per..(r + 1) * per]))
                    .await;
            }
            self.barrier.wait(ctx).await;

            for _iter in 0..self.params.iters {
                let mut all: Vec<Mol> = Vec::with_capacity(self.params.molecules);
                for r in 0..p {
                    self.crl.start_read(ctx, r as u32).await;
                    let chunk = Self::decode(&self.crl.snapshot(ctx, r as u32));
                    self.crl.end_read(ctx, r as u32).await;
                    all.extend(chunk);
                }

                let mut mine: Vec<Mol> = all[me * per..(me + 1) * per].to_vec();
                let mut checks = 0u64;
                let mut hits = 0u64;
                for (k, m) in mine.iter_mut().enumerate() {
                    let idx = me * per + k;
                    let mut acc = [0.0f32; 3];
                    for (j, other) in all.iter().enumerate() {
                        if j == idx {
                            continue;
                        }
                        checks += 1;
                        let dr = [
                            Self::min_image(m.pos[0], other.pos[0]),
                            Self::min_image(m.pos[1], other.pos[1]),
                            Self::min_image(m.pos[2], other.pos[2]),
                        ];
                        let d2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
                        if d2 < cutoff2 && d2 > 0.0 {
                            hits += 1;
                            // Soft LJ-like repulsion/attraction.
                            let inv2 = 1.0 / (d2 + 1e-4);
                            let inv6 = inv2 * inv2 * inv2;
                            let f = (inv6 * inv6 - 0.5 * inv6) * 1e-6;
                            for d in 0..3 {
                                acc[d] += f * dr[d];
                            }
                        }
                    }
                    for d in 0..3 {
                        m.vel[d] += acc[d] * self.params.dt;
                        m.pos[d] = (m.pos[d] + m.vel[d] * self.params.dt).rem_euclid(1.0);
                    }
                }
                ctx.compute(
                    self.params.pair_check_cost * checks + self.params.interact_cost * hits,
                )
                .await;
                self.barrier.wait(ctx).await;

                self.crl.start_write(ctx, me as u32).await;
                let enc = Self::encode(&mine);
                self.crl.update(ctx, me as u32, |w| w.copy_from_slice(&enc));
                self.crl.end_write(ctx, me as u32).await;
                self.barrier.wait(ctx).await;
            }

            if me == 0 {
                let mut sum = 0u64;
                for r in 0..p {
                    self.crl.start_read(ctx, r as u32).await;
                    for w in &self.crl.snapshot(ctx, r as u32) {
                        sum = sum.wrapping_mul(31).wrapping_add(*w as u64);
                    }
                    self.crl.end_read(ctx, r as u32).await;
                }
                self.checksum.set(Some(sum));
            }
            self.barrier.wait(ctx).await;
        })
    }

    fn handler<'a>(&'a self, ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            if self.crl.handle(ctx, env).await {
                return;
            }
            if self.barrier.handle(ctx, env).await {
                return;
            }
            panic!("water: unexpected handler {}", env.handler.0);
        })
    }
}
