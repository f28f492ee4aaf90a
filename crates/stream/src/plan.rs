//! Continuous query plans over XD-Relations (§4.2).
//!
//! §4.2 does not define a second algebra: it keeps the Serena operators over
//! XD-Relations and adds **window** `W[period]` and **streaming**
//! `S[kind]`. So there is one plan tree, [`serena_core::plan::Plan`], which
//! carries those two (and the streaming binding pattern `βˢ`) beside the
//! Table 3 operators and checks the finite/infinite operand rules in
//! [`Plan::stream_schema`](serena_core::plan::Plan::stream_schema).
//! [`StreamPlan`] is that type under the name continuous-query code uses.

pub use serena_core::plan::{Plan as StreamPlan, StreamKind, StreamSchema};

/// The continuous example queries of Table 4 / Example 8, reconstructed
/// from the paper's prose (the camera-ready table is partially garbled in
/// the archived copy; the reconstruction follows the stated behaviour and
/// the finite/infinite status the paper gives for each result).
pub mod examples {
    use super::*;
    use serena_core::formula::Formula;

    /// `Q3`: "when a temperature exceeds 35.5 °C, send the message 'Hot!'
    /// to the contacts" —
    /// `β_sendMessage(α_text:='Hot!'(contacts ⋈ σ_temp>35.5(W[1](temperatures))))`.
    /// The result is finite ("its last operator is the invocation
    /// operator"); the join with `contacts` is a Cartesian product at tuple
    /// level (no common real attribute), i.e. every contact is alerted for
    /// every hot reading.
    pub fn q3() -> StreamPlan {
        StreamPlan::source("temperatures")
            .window(1)
            .select(Formula::gt_const("temperature", 35.5))
            .project(["temperature"])
            .join(StreamPlan::source("contacts"))
            .assign_const("text", "Hot!")
            .invoke("sendMessage", "messenger")
    }

    /// `Q4`: "when a temperature goes down below 12.0 °C, take a photo of
    /// the area" —
    /// `S[insertion](π_photo(β_takePhoto(β_checkPhoto(cameras ⋈ ρ_location→area(σ_temp<12(W[1](temperatures)))))))`.
    /// The result is an infinite XD-Relation — a stream of photos.
    pub fn q4() -> StreamPlan {
        StreamPlan::source("temperatures")
            .window(1)
            .select(Formula::lt_const("temperature", 12.0))
            .rename("location", "area")
            .project(["area"])
            .join(StreamPlan::source("cameras"))
            .invoke("checkPhoto", "camera")
            .invoke("takePhoto", "camera")
            .project(["photo"])
            .stream(StreamKind::Insertion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serena_core::schema::examples as schemas;
    use serena_core::schema::XSchema;
    use serena_core::value::DataType;
    use std::collections::BTreeMap;

    fn catalog() -> BTreeMap<String, StreamSchema> {
        let temperatures = XSchema::builder()
            .real("location", DataType::Str)
            .real("temperature", DataType::Real)
            .build()
            .unwrap();
        let mut cat = BTreeMap::new();
        cat.insert(
            "temperatures".to_string(),
            StreamSchema::infinite(temperatures),
        );
        cat.insert(
            "contacts".to_string(),
            StreamSchema::finite(schemas::contacts_schema()),
        );
        cat.insert(
            "cameras".to_string(),
            StreamSchema::finite(schemas::cameras_schema()),
        );
        cat
    }

    #[test]
    fn q3_is_finite_with_sent_realized() {
        let s = examples::q3().stream_schema(&catalog()).unwrap();
        assert!(!s.infinite);
        assert!(s.schema.is_real("sent"));
        assert!(s.schema.is_real("text"));
    }

    #[test]
    fn q4_is_an_infinite_photo_stream() {
        let s = examples::q4().stream_schema(&catalog()).unwrap();
        assert!(s.infinite);
        let names: Vec<String> = s.schema.names().map(|a| a.to_string()).collect();
        assert_eq!(names, vec!["photo"]);
    }

    #[test]
    fn algebra_rendering_includes_window_and_stream() {
        let text = examples::q4().to_algebra();
        assert!(text.contains("W[1]"));
        assert!(text.contains("S[insertion]"));
        assert!(text.contains("β takePhoto[camera]"));
    }

    #[test]
    fn q3_and_q4_keep_their_schema_and_status_when_optimized() {
        let cat = catalog();
        for q in [examples::q3(), examples::q4()] {
            let opt = serena_core::rewrite::optimize(&q, &cat).plan;
            assert_eq!(
                q.stream_schema(&cat).unwrap(),
                opt.stream_schema(&cat).unwrap(),
                "{q} vs {opt}"
            );
        }
    }
}
