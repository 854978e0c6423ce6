//! The "null" application of §5: a compute-only job multiprogrammed
//! against each benchmark. "We use a null application rather than two
//! copies of a real application because the experiment is more easily
//! controlled."

use std::sync::Arc;

use udm::{JobSpec, Program, Sim, UserCtx};

/// Computes forever; never sends or receives.
#[derive(Debug, Default)]
pub struct NullApp;

impl Program for NullApp {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            loop {
                ctx.compute(10_000).await;
            }
        })
    }
}

impl NullApp {
    /// A background job spec named "null".
    pub fn spec() -> JobSpec {
        JobSpec::new("null", Arc::new(NullApp)).background()
    }
}
