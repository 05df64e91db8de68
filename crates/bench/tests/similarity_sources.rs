//! The interned, iterative [`SimilarityEngine`] must agree bit for bit with
//! the pre-interning reference implementation (recursive Ratcliff–Obershelp
//! over owned `String` tokens, kept in `lassi_metrics::similarity::reference`)
//! on the real benchmark sources. The metrics crate's property tests cover
//! short random strings; this covers the token counts a grid sweep actually
//! feeds the metric, through one reused engine as the pipeline uses it.

use lassi_hecbench::applications;
use lassi_metrics::similarity::{reference, SimilarityEngine};

#[test]
fn engine_matches_reference_on_every_app_source_pair() {
    let apps = applications();
    assert_eq!(apps.len(), 10, "Table IV has ten applications");
    let mut engine = SimilarityEngine::new();
    for app in &apps {
        let (cuda, omp) = (app.cuda_source, app.omp_source);
        let sim_t = engine.sim_t(cuda, omp);
        let expected_t = reference::sim_t(cuda, omp);
        assert_eq!(
            sim_t.to_bits(),
            expected_t.to_bits(),
            "{}: sim_t {sim_t} vs reference {expected_t}",
            app.name
        );
        let sim_l = engine.sim_l(cuda, omp);
        let expected_l = reference::sim_l(cuda, omp);
        assert_eq!(
            sim_l.to_bits(),
            expected_l.to_bits(),
            "{}: sim_l {sim_l} vs reference {expected_l}",
            app.name
        );
    }
}
