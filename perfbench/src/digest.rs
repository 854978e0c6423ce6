//! Run-report digests: the correctness gate compares a run's
//! `RunReport::to_json` against a committed golden by a 64-bit FNV-1a hash
//! of its compact rendering.

use udm::RunReport;

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Sixteen hex digits identifying every simulated quantity of a run.
pub fn report_digest(report: &RunReport) -> String {
    format!("{:016x}", fnv1a64(report.to_json().render().as_bytes()))
}
