//! Session goldens: the per-agent token usage and the attempt wall times
//! of one metadata-heavy and one bandwidth-bound tuning session, pinned
//! bit for bit.
//!
//! The constants were recorded with attempts still Darshan-traced and the
//! dataframe digest rendered on every Analysis Agent call. Running
//! attempts untraced and rendering the digest once per session must leave
//! every prompt byte — and so every token count and cache hit — and every
//! simulated wall time exactly where they were.

use agents::RuleSet;
use llmsim::UsageMeter;
use stellar::Stellar;
use workloads::WorkloadKind;

/// `(input, cached, output, calls)` of one agent's meter.
fn meter(u: &UsageMeter) -> (u64, u64, u64, u64) {
    (
        u.input_tokens,
        u.cached_input_tokens,
        u.output_tokens,
        u.calls,
    )
}

struct Golden {
    tuning: (u64, u64, u64, u64),
    analysis: (u64, u64, u64, u64),
    default_wall_bits: u64,
    attempt_wall_bits: &'static [u64],
}

fn check(kind: WorkloadKind, scale: f64, seed: u64, want: &Golden) {
    let engine = Stellar::standard();
    let w = kind.spec().scaled(scale);
    let run = engine.session(w.as_ref(), RuleSet::new(), seed).drain();
    let walls: Vec<u64> = run.attempts.iter().map(|a| a.wall_secs.to_bits()).collect();
    assert_eq!(meter(&run.tuning_usage), want.tuning, "tuning agent usage");
    assert_eq!(
        meter(&run.analysis_usage),
        want.analysis,
        "analysis agent usage"
    );
    assert_eq!(
        run.default_wall.to_bits(),
        want.default_wall_bits,
        "default run wall time"
    );
    assert_eq!(walls, want.attempt_wall_bits, "attempt wall times");
}

#[test]
fn mdworkbench_session_usage_and_walls_are_pinned() {
    check(
        WorkloadKind::MdWorkbench8K,
        0.1,
        7,
        &Golden {
            tuning: (6131, 4352, 674, 7),
            analysis: (124336, 82688, 173, 3),
            default_wall_bits: 4608436878741046127,
            attempt_wall_bits: &[
                4607303704498488184,
                4607292044251210957,
                4607429869739068825,
            ],
        },
    );
}

#[test]
fn ior_16m_session_usage_and_walls_are_pinned() {
    check(
        WorkloadKind::Ior16M,
        0.1,
        7,
        &Golden {
            tuning: (5093, 3584, 775, 6),
            analysis: (4618, 2176, 141, 2),
            default_wall_bits: 4613905745457758266,
            attempt_wall_bits: &[
                4604761620104271190,
                4604724537527989816,
                4604602092409320171,
            ],
        },
    );
}
