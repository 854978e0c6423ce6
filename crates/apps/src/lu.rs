//! The `LU` benchmark: blocked dense LU decomposition on CRL, after the
//! SPLASH kernel (paper data set: 250×250 matrix in 10×10-element blocks).
//!
//! The matrix is partitioned into `G × G` blocks of `B × B` elements; each
//! block is one CRL region, and block `(i, j)` is updated by node
//! `(i·G + j) mod P` (which is also its region home, so owners factorize
//! in place and readers pull blocks across the network — "many low-latency
//! request-reply packets mixed with fewer larger data packets").
//!
//! Right-looking factorization without pivoting (the matrix is made
//! diagonally dominant); phases are separated by message barriers exactly
//! as the SPLASH original separates them with its barriers.

use std::cell::Cell;
use std::sync::Arc;

use fugu_crl::Crl;
use udm::{Envelope, JobSpec, Program, Sim, UserCtx};

use crate::sync::{f32bits, MsgBarrier};

/// Parameters of the LU benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LuParams {
    /// Matrix dimension (elements). The paper uses 250; the scaled default
    /// is 64.
    pub n: usize,
    /// Block dimension (elements). The paper's grid is 10×10 blocks.
    pub block: usize,
    /// Cycles charged per fused multiply-add in block kernels.
    pub flop_cost: u64,
}

impl Default for LuParams {
    fn default() -> Self {
        LuParams {
            n: 64,
            block: 16,
            flop_cost: 4,
        }
    }
}

/// The LU program. After the run, [`LuApp::residual`] reports
/// `max |(L·U) − A| / max |A|`.
pub struct LuApp {
    params: LuParams,
    grid: usize,
    crl: Crl,
    barrier: MsgBarrier,
    residual: Cell<Option<f32>>,
}

impl LuApp {
    /// Builds the program for `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `block` does not divide `n`.
    pub fn new(nodes: usize, params: LuParams) -> Self {
        assert!(params.n.is_multiple_of(params.block), "block must divide n");
        let grid = params.n / params.block;
        LuApp {
            params,
            grid,
            crl: Crl::new(nodes),
            barrier: MsgBarrier::new(nodes),
            residual: Cell::new(None),
        }
    }

    /// Job spec named "lu".
    pub fn spec(nodes: usize, params: LuParams) -> Arc<LuApp> {
        Arc::new(LuApp::new(nodes, params))
    }

    /// Wraps an `Arc`'d app into a job spec.
    pub fn job(app: &Arc<LuApp>) -> JobSpec {
        JobSpec::new("lu", Arc::clone(app) as Arc<dyn Program>)
    }

    /// Post-run factorization residual (node 0 computes it).
    pub fn residual(&self) -> Option<f32> {
        self.residual.get()
    }

    /// CRL request retries fired by the timeout protocol (chaos runs).
    pub fn crl_retries(&self) -> u64 {
        self.crl.retries()
    }

    fn rid(&self, bi: usize, bj: usize) -> u32 {
        (bi * self.grid + bj) as u32
    }

    fn owner(&self, bi: usize, bj: usize, p: usize) -> usize {
        (bi * self.grid + bj) % p
    }

    /// Deterministic diagonally dominant source matrix element.
    fn a0(&self, i: usize, j: usize) -> f32 {
        let n = self.params.n;
        let v = ((i * 31 + j * 17) % 97) as f32 / 97.0 - 0.5;
        if i == j {
            v + n as f32
        } else {
            v
        }
    }

    async fn charge_block_kernel(&self, ctx: &mut UserCtx, fmas: usize) {
        ctx.compute(self.params.flop_cost * fmas as u64).await;
    }
}

/// Dense B×B helpers on flat row-major `Vec<f32>`.
fn at(b: usize, m: &[f32], i: usize, j: usize) -> f32 {
    m[i * b + j]
}
fn at_mut(b: usize, m: &mut [f32], i: usize, j: usize) -> &mut f32 {
    &mut m[i * b + j]
}

impl Program for LuApp {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            let me = ctx.node();
            let p = ctx.nodes();
            let b = self.params.block;
            let g = self.grid;

            // Create all block regions collectively; homes initialize content.
            for bi in 0..g {
                for bj in 0..g {
                    let mut init = vec![0.0f32; b * b];
                    for i in 0..b {
                        for j in 0..b {
                            init[i * b + j] = self.a0(bi * b + i, bj * b + j);
                        }
                    }
                    self.crl
                        .create(ctx, self.rid(bi, bj), &f32bits::encode(&init))
                        .await;
                }
            }
            self.barrier.wait(ctx).await;

            for k in 0..g {
                // Phase 1: factorize the diagonal block.
                if self.owner(k, k, p) == me {
                    let rid = self.rid(k, k);
                    self.crl.start_write(ctx, rid).await;
                    self.crl.update(ctx, rid, |w| {
                        let mut m = f32bits::decode(w);
                        for kk in 0..b {
                            let pivot = at(b, &m, kk, kk);
                            for i in kk + 1..b {
                                *at_mut(b, &mut m, i, kk) /= pivot;
                                let l = at(b, &m, i, kk);
                                for j in kk + 1..b {
                                    let u = at(b, &m, kk, j);
                                    *at_mut(b, &mut m, i, j) -= l * u;
                                }
                            }
                        }
                        w.copy_from_slice(&f32bits::encode(&m));
                    });
                    self.crl.end_write(ctx, rid).await;
                    self.charge_block_kernel(ctx, b * b * b / 3).await;
                }
                self.barrier.wait(ctx).await;

                // Phase 2: perimeter blocks.
                for t in k + 1..g {
                    // Column block (t, k): A_tk := A_tk · U_kk⁻¹.
                    if self.owner(t, k, p) == me {
                        let diag_rid = self.rid(k, k);
                        self.crl.start_read(ctx, diag_rid).await;
                        let diag = f32bits::decode(&self.crl.snapshot(ctx, diag_rid));
                        self.crl.end_read(ctx, diag_rid).await;
                        let rid = self.rid(t, k);
                        self.crl.start_write(ctx, rid).await;
                        self.crl.update(ctx, rid, |w| {
                            let mut m = f32bits::decode(w);
                            // Solve X · U = A (forward substitution on columns).
                            for i in 0..b {
                                for j in 0..b {
                                    let mut s = at(b, &m, i, j);
                                    for x in 0..j {
                                        s -= at(b, &m, i, x) * at(b, &diag, x, j);
                                    }
                                    *at_mut(b, &mut m, i, j) = s / at(b, &diag, j, j);
                                }
                            }
                            w.copy_from_slice(&f32bits::encode(&m));
                        });
                        self.crl.end_write(ctx, rid).await;
                        self.charge_block_kernel(ctx, b * b * b / 2).await;
                    }
                    // Row block (k, t): A_kt := L_kk⁻¹ · A_kt.
                    if self.owner(k, t, p) == me {
                        let diag_rid = self.rid(k, k);
                        self.crl.start_read(ctx, diag_rid).await;
                        let diag = f32bits::decode(&self.crl.snapshot(ctx, diag_rid));
                        self.crl.end_read(ctx, diag_rid).await;
                        let rid = self.rid(k, t);
                        self.crl.start_write(ctx, rid).await;
                        self.crl.update(ctx, rid, |w| {
                            let mut m = f32bits::decode(w);
                            // Solve L · X = A (L unit lower triangular).
                            for j in 0..b {
                                for i in 0..b {
                                    let mut s = at(b, &m, i, j);
                                    for x in 0..i {
                                        s -= at(b, &diag, i, x) * at(b, &m, x, j);
                                    }
                                    *at_mut(b, &mut m, i, j) = s;
                                }
                            }
                            w.copy_from_slice(&f32bits::encode(&m));
                        });
                        self.crl.end_write(ctx, rid).await;
                        self.charge_block_kernel(ctx, b * b * b / 2).await;
                    }
                }
                self.barrier.wait(ctx).await;

                // Phase 3: interior updates A_ij −= A_ik · A_kj.
                for bi in k + 1..g {
                    for bj in k + 1..g {
                        if self.owner(bi, bj, p) != me {
                            continue;
                        }
                        let l_rid = self.rid(bi, k);
                        let u_rid = self.rid(k, bj);
                        self.crl.start_read(ctx, l_rid).await;
                        let lb = f32bits::decode(&self.crl.snapshot(ctx, l_rid));
                        self.crl.end_read(ctx, l_rid).await;
                        self.crl.start_read(ctx, u_rid).await;
                        let ub = f32bits::decode(&self.crl.snapshot(ctx, u_rid));
                        self.crl.end_read(ctx, u_rid).await;
                        let rid = self.rid(bi, bj);
                        self.crl.start_write(ctx, rid).await;
                        self.crl.update(ctx, rid, |w| {
                            let mut m = f32bits::decode(w);
                            for i in 0..b {
                                for j in 0..b {
                                    let mut s = at(b, &m, i, j);
                                    for x in 0..b {
                                        s -= at(b, &lb, i, x) * at(b, &ub, x, j);
                                    }
                                    *at_mut(b, &mut m, i, j) = s;
                                }
                            }
                            w.copy_from_slice(&f32bits::encode(&m));
                        });
                        self.crl.end_write(ctx, rid).await;
                        self.charge_block_kernel(ctx, b * b * b).await;
                    }
                }
                self.barrier.wait(ctx).await;
            }

            // Validation: node 0 reconstructs L·U and compares against A.
            if me == 0 {
                let n = self.params.n;
                let mut lu = vec![0.0f32; n * n];
                for bi in 0..g {
                    for bj in 0..g {
                        let rid = self.rid(bi, bj);
                        self.crl.start_read(ctx, rid).await;
                        let blk = f32bits::decode(&self.crl.snapshot(ctx, rid));
                        self.crl.end_read(ctx, rid).await;
                        for i in 0..b {
                            for j in 0..b {
                                lu[(bi * b + i) * n + bj * b + j] = blk[i * b + j];
                            }
                        }
                    }
                }
                let mut max_err = 0.0f32;
                let mut max_a = 0.0f32;
                for i in 0..n {
                    for j in 0..n {
                        // (L·U)_ij = Σ_x L_ix · U_xj with L unit lower.
                        let mut s = 0.0f32;
                        for x in 0..=i.min(j) {
                            let l = if x == i { 1.0 } else { lu[i * n + x] };
                            s += l * lu[x * n + j];
                        }
                        if i > j {
                            // row i, col j with x ranging 0..j plus L_ij·U_jj.
                            s = 0.0;
                            for x in 0..j {
                                s += lu[i * n + x] * lu[x * n + j];
                            }
                            s += lu[i * n + j] * lu[j * n + j];
                        }
                        let a = self.a0(i, j);
                        max_err = max_err.max((s - a).abs());
                        max_a = max_a.max(a.abs());
                    }
                }
                self.residual.set(Some(max_err / max_a));
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
            panic!("lu: unexpected handler {}", env.handler.0);
        })
    }
}
