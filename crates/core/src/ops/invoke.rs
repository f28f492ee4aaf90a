//! Invocation β (Table 3(f)).
//!
//! The realization operator for the *output attributes of a binding
//! pattern*: `β_bp(r)` invokes `prototype_bp` once per input tuple, on the
//! service referenced by the tuple's `service_bp` attribute, with input
//! parameters projected from the tuple. Every output tuple of the
//! invocation extends (duplicates) the input tuple; zero output tuples drop
//! it. Output attributes become real; binding patterns whose outputs
//! overlap the realized attributes are eliminated.
//!
//! Invocations of *active* binding patterns are recorded in the query's
//! [`ActionSet`] (Definition 8).

use crate::action::{Action, ActionSet};
use crate::binding::BindingPattern;
use crate::error::{EvalError, PlanError};
use crate::schema::{AttrKind, Attribute, SchemaRef, XSchema};
use crate::service::Invoker;
use crate::time::Instant;
use crate::tuple::Tuple;
use crate::value::ServiceRef;
use crate::xrelation::XRelation;

use super::compiled::Slot;

/// Resolve the binding pattern named by `(prototype, service_attr)` on
/// `schema` and derive the output schema of `β_bp(r)`.
///
/// Requires `schema(Input_ψ) ⊆ realSchema(R)` — invoke realization
/// operators (α or an upstream β) first otherwise.
pub fn invoke_schema(
    schema: &XSchema,
    prototype: &str,
    service_attr: &str,
) -> Result<(SchemaRef, BindingPattern), PlanError> {
    let bp = schema
        .find_bp_exact(prototype, service_attr)
        .cloned()
        .ok_or_else(|| PlanError::UnknownBindingPattern {
            prototype: prototype.to_string(),
        })?;
    // All prototype inputs must be real.
    for a in bp.prototype().input().names() {
        if !schema.is_real(a.as_str()) {
            return Err(PlanError::InvokeInputNotReal {
                prototype: prototype.to_string(),
                attr: a.clone(),
            });
        }
    }
    let outputs: Vec<&str> = bp
        .prototype()
        .output()
        .names()
        .map(|a| a.as_str())
        .collect();
    let attrs: Vec<Attribute> = schema
        .attrs()
        .iter()
        .map(|a| {
            if outputs.contains(&a.name.as_str()) {
                Attribute {
                    name: a.name.clone(),
                    ty: a.ty,
                    kind: AttrKind::Real,
                }
            } else {
                a.clone()
            }
        })
        .collect();
    // BP(S): patterns whose outputs stay within the remaining virtuals.
    let bps = schema
        .binding_patterns()
        .iter()
        .filter(|other| {
            other
                .prototype()
                .output()
                .names()
                .all(|a| !outputs.contains(&a.as_str()) && schema.is_virtual(a.as_str()))
        })
        .cloned()
        .collect();
    let out = XSchema::from_attrs(attrs, bps).map_err(PlanError::Schema)?;
    Ok((out, bp))
}

/// Running tallies of one β application, consumed by the metrics layer
/// ([`crate::metrics`]): how many live invocations were performed and how
/// they ended. The plain [`invoke`] entry point discards the tally; the
/// executors copy it into an [`OpObservation`](crate::metrics::OpObservation)
/// ([`InvokeTally::record_into`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InvokeTally {
    /// Invocations performed (one per input tuple reaching the invoker).
    pub invocations: u64,
    /// Invocations that returned an error.
    pub failures: u64,
    /// Failed tuples degraded (dropped or null-filled) instead of failing
    /// the whole query, per the active [`DegradePolicy`].
    pub degraded: u64,
    /// Invocations whose service implementation panicked. The panic was
    /// contained ([`EvalError::Panicked`]) and also counts as a failure.
    pub panics: u64,
    /// Invocations that failed because the node hosting the service was
    /// unreachable ([`EvalError::RemoteUnavailable`]); also failures.
    pub remote_unavailable: u64,
}

impl InvokeTally {
    /// Add this tally to `obs`'s β counters.
    pub fn record_into(&self, obs: &mut crate::metrics::OpObservation) {
        obs.invocations += self.invocations;
        obs.failures += self.failures;
        obs.degraded += self.degraded;
        obs.panics += self.panics;
        obs.remote_unavailable += self.remote_unavailable;
    }
}

/// How β/βˢ reacts when one tuple's invocation fails — the graceful
/// degradation knob of the resilience layer.
///
/// The paper's services are "dynamic, volatile" (§2.1); with the default
/// [`DegradePolicy::FailQuery`], one dead sensor makes a whole one-shot
/// query error out (and surfaces a per-tick error in continuous mode). The
/// other policies trade completeness for availability: the query keeps its
/// healthy tuples and the failure is only visible in the `degraded`
/// counters ([`InvokeTally`], [`NodeStats`](crate::metrics::NodeStats)).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum DegradePolicy {
    /// A failed invocation fails the query (one-shot) or surfaces as a
    /// tick error (continuous) — the historical behaviour, and the default.
    #[default]
    FailQuery,
    /// Drop the failed input tuple: it contributes no output rows, the
    /// rest of the batch proceeds.
    DropTuple,
    /// Keep the failed input tuple, extending it with each output
    /// attribute's type-default filler value
    /// ([`DataType::default_value`](crate::value::DataType::default_value)).
    NullFill,
}

impl DegradePolicy {
    /// Whether a failed invocation under this policy aborts/errors the
    /// query (i.e. the policy performs no degradation).
    pub fn fails_query(&self) -> bool {
        matches!(self, DegradePolicy::FailQuery)
    }
}

/// `β_bp(r)`: evaluate the invocation operator at instant `at`, resolving
/// services through `invoker` and recording active invocations in
/// `actions`.
pub fn invoke(
    r: &XRelation,
    prototype: &str,
    service_attr: &str,
    invoker: &dyn Invoker,
    at: Instant,
    actions: &mut ActionSet,
) -> Result<XRelation, EvalError> {
    let recipe = InvokeRecipe::prepare(r.schema(), prototype, service_attr)?;
    let out = recipe.invoke_batch_observed(
        r.iter(),
        invoker,
        at,
        actions,
        &mut InvokeTally::default(),
        DegradePolicy::FailQuery,
    )?;
    Ok(XRelation::from_tuples(recipe.out_schema().clone(), out))
}

/// Everything `β_bp(r)` needs per call, resolved **once** against the input
/// schema: the input-projection coordinates, the service-reference
/// coordinate, and the output-assembly recipe. An `InvokeRecipe` is computed
/// at plan-compile time and used by both the one-shot physical executor and
/// the continuous executor.
#[derive(Debug, Clone)]
pub struct InvokeRecipe {
    bp: BindingPattern,
    out_schema: SchemaRef,
    /// Prototype input attributes, as input-tuple coordinates (Input_ψ order).
    input_coords: Vec<usize>,
    /// Coordinate of the service-reference attribute in the input tuple.
    service_coord: usize,
    /// One entry per real attribute of the output schema, over (input
    /// tuple, invocation result row in `Output_ψ` order).
    slots: Vec<Slot>,
    /// The [`DegradePolicy::NullFill`] result row: each output attribute's
    /// type default.
    filler: Tuple,
}

/// The raw outcome of one prepared-and-invoked input tuple, produced by
/// [`InvokeRecipe::call`]: the resolved service reference, the
/// projected input (both needed to record an [`Action`]) and the
/// invocation's result.
#[derive(Debug)]
pub struct TupleCall {
    /// The service the tuple's service attribute referenced.
    pub sref: ServiceRef,
    /// The prototype input projected from the tuple.
    pub input: Tuple,
    /// What the invoker returned.
    pub result: Result<Vec<Tuple>, EvalError>,
}

impl InvokeRecipe {
    /// Resolve `(prototype, service_attr)` on `in_schema` and pre-compute
    /// the full invocation recipe (schema derivation + coordinate maps).
    pub fn prepare(
        in_schema: &XSchema,
        prototype: &str,
        service_attr: &str,
    ) -> Result<InvokeRecipe, PlanError> {
        let (out_schema, bp) = invoke_schema(in_schema, prototype, service_attr)?;
        let proto = bp.prototype();
        let input_coords = in_schema
            .coords_of(proto.input().names().map(|a| a.as_str()))
            .expect("validated real");
        let service_coord = in_schema
            .coord_of(bp.service_attr().as_str())
            .expect("validated real");
        let slots = Slot::resolve(&out_schema, in_schema, |a| {
            Slot::Right(
                proto
                    .output()
                    .index_of(a)
                    .expect("realized by the prototype"),
            )
        });
        let filler = proto
            .output()
            .attrs()
            .map(|(_, ty)| ty.default_value())
            .collect();
        Ok(InvokeRecipe {
            bp,
            out_schema,
            input_coords,
            service_coord,
            slots,
            filler,
        })
    }

    /// The derived output schema of `β_bp(r)`.
    pub fn out_schema(&self) -> &SchemaRef {
        &self.out_schema
    }

    /// The resolved binding pattern.
    pub fn binding_pattern(&self) -> &BindingPattern {
        &self.bp
    }

    /// Prepare and invoke one input tuple, on the calling thread. `Err`
    /// when the service attribute does not hold a service reference
    /// (nothing was invoked); otherwise the invocation's own result rides
    /// in the [`TupleCall`].
    pub fn call(
        &self,
        t: &Tuple,
        invoker: &dyn Invoker,
        at: Instant,
    ) -> Result<TupleCall, EvalError> {
        let sref = t[self.service_coord].as_service_ref().ok_or_else(|| {
            EvalError::Value(format!(
                "attribute `{}` does not hold a service reference: {}",
                self.bp.service_attr(),
                t[self.service_coord]
            ))
        })?;
        let input = t.project_positions(&self.input_coords);
        // Contain panics here rather than letting them unwind through the
        // query's tick: a panicking service surfaces as
        // `EvalError::Panicked`, never poisons the round or the process.
        let result =
            crate::service::invoke_contained(invoker, self.bp.prototype(), &sref, &input, at);
        Ok(TupleCall {
            sref,
            input,
            result,
        })
    }

    /// Settle one invoked tuple: turn the invocation's `result` for input
    /// tuple `t` into the extended tuples β emits for it, counting a failure
    /// in `tally` and applying `degrade` to it — the single place a failed β
    /// outcome is interpreted.
    ///
    /// * `Ok(Some(outputs))` — `t` extended by each result row (possibly
    ///   none), or by the type-default filler row under
    ///   [`DegradePolicy::NullFill`];
    /// * `Ok(None)` — the failed tuple was dropped
    ///   ([`DegradePolicy::DropTuple`]): nothing to emit, nothing to cache;
    /// * `Err(e)` — [`DegradePolicy::FailQuery`]: the caller fails the
    ///   query (one-shot) or surfaces `e` for the tick (continuous).
    pub fn settle(
        &self,
        t: &Tuple,
        result: Result<Vec<Tuple>, EvalError>,
        degrade: DegradePolicy,
        tally: &mut InvokeTally,
    ) -> Result<Option<Vec<Tuple>>, EvalError> {
        let extend = |rows: &[Tuple]| {
            rows.iter()
                .map(|o| Slot::gather(&self.slots, t, o))
                .collect()
        };
        let e = match result {
            Ok(rows) => return Ok(Some(extend(&rows))),
            Err(e) => e,
        };
        tally.failures += 1;
        tally.panics += u64::from(matches!(e, EvalError::Panicked { .. }));
        tally.remote_unavailable += u64::from(matches!(e, EvalError::RemoteUnavailable { .. }));
        match degrade {
            DegradePolicy::FailQuery => Err(e),
            DegradePolicy::DropTuple => {
                tally.degraded += 1;
                Ok(None)
            }
            DegradePolicy::NullFill => {
                tally.degraded += 1;
                Ok(Some(extend(std::slice::from_ref(&self.filler))))
            }
        }
    }

    /// β over a batch with the paper's §3.2 one-shot semantics: tuples are
    /// invoked one by one, in input order, each active invocation is
    /// recorded in `actions`, and — under [`DegradePolicy::FailQuery`] — the
    /// first failure aborts the batch (the tally still counts the failed
    /// attempt) and nothing past it is invoked. Under the degrading
    /// policies a failed tuple is dropped or null-filled instead and the
    /// batch continues.
    pub fn invoke_batch_observed<'t>(
        &self,
        tuples: impl IntoIterator<Item = &'t Tuple>,
        invoker: &dyn Invoker,
        at: Instant,
        actions: &mut ActionSet,
        tally: &mut InvokeTally,
        degrade: DegradePolicy,
    ) -> Result<Vec<Tuple>, EvalError> {
        let mut out = Vec::new();
        for t in tuples {
            let call = self.call(t, invoker, at)?;
            if self.bp.is_active() {
                actions.record(Action::new(self.bp.clone(), call.sref, call.input));
            }
            tally.invocations += 1;
            out.extend(
                self.settle(t, call.result, degrade, tally)?
                    .unwrap_or_default(),
            );
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::attr;
    use crate::formula::Formula;
    use crate::ops::{assign, select, AssignSource};
    use crate::service::fixtures::example_registry;
    use crate::tuple;
    use crate::value::Value;
    use crate::xrelation::examples::{cameras, contacts, sensors};

    #[test]
    fn passive_invocation_realizes_temperature() {
        let reg = example_registry();
        let mut actions = ActionSet::new();
        let out = invoke(
            &sensors(),
            "getTemperature",
            "sensor",
            &reg,
            Instant(3),
            &mut actions,
        )
        .unwrap();
        assert_eq!(out.len(), 4);
        assert!(out.schema().is_real("temperature"));
        assert!(out.schema().binding_patterns().is_empty());
        // passive prototype → empty action set (Example 7's reasoning)
        assert!(actions.is_empty());
        // deterministic at the instant
        let mut actions2 = ActionSet::new();
        let out2 = invoke(
            &sensors(),
            "getTemperature",
            "sensor",
            &reg,
            Instant(3),
            &mut actions2,
        )
        .unwrap();
        assert_eq!(out, out2);
    }

    #[test]
    fn active_invocation_records_actions_q1() {
        // Q1 = β_{sendMessage[messenger]}(α_{text:='Bonjour!'}(σ_{name<>'Carla'}(contacts)))
        let reg = example_registry();
        let step1 = select(&contacts(), &Formula::ne_const("name", "Carla")).unwrap();
        let step2 = assign(&step1, &attr("text"), &AssignSource::constant("Bonjour!")).unwrap();
        let mut actions = ActionSet::new();
        let out = invoke(
            &step2,
            "sendMessage",
            "messenger",
            &reg,
            Instant::ZERO,
            &mut actions,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.schema().is_real("sent"));
        // Example 6's action set for Q1:
        let rendered: Vec<String> = actions.iter().map(|a| a.to_string()).collect();
        assert_eq!(
            rendered,
            vec![
                "(sendMessage[messenger], email, (nicolas@elysee.fr, Bonjour!))",
                "(sendMessage[messenger], jabber, (francois@im.gouv.fr, Bonjour!))",
            ]
        );
    }

    #[test]
    fn input_must_be_real() {
        // sendMessage needs `text` real; contacts has it virtual
        let reg = example_registry();
        let mut actions = ActionSet::new();
        let err = invoke(
            &contacts(),
            "sendMessage",
            "messenger",
            &reg,
            Instant::ZERO,
            &mut actions,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EvalError::Plan(PlanError::InvokeInputNotReal { .. })
        ));
    }

    #[test]
    fn unknown_bp_rejected() {
        let reg = example_registry();
        let mut actions = ActionSet::new();
        assert!(matches!(
            invoke(
                &contacts(),
                "takePhoto",
                "camera",
                &reg,
                Instant::ZERO,
                &mut actions
            ),
            Err(EvalError::Plan(PlanError::UnknownBindingPattern { .. }))
        ));
        assert!(matches!(
            invoke(
                &contacts(),
                "sendMessage",
                "name",
                &reg,
                Instant::ZERO,
                &mut actions
            ),
            Err(EvalError::Plan(PlanError::UnknownBindingPattern { .. }))
        ));
    }

    #[test]
    fn chained_invocations_check_then_take_photo() {
        // β_{takePhoto}(β_{checkPhoto}(cameras)): checkPhoto realizes
        // quality+delay; takePhoto's input (area, quality) is then real.
        let reg = example_registry();
        let mut actions = ActionSet::new();
        let checked = invoke(
            &cameras(),
            "checkPhoto",
            "camera",
            &reg,
            Instant(1),
            &mut actions,
        )
        .unwrap();
        assert!(checked.schema().is_real("quality"));
        // takePhoto survives checkPhoto's realization (photo still virtual)
        assert_eq!(checked.schema().binding_patterns().len(), 1);
        let photos = invoke(
            &checked,
            "takePhoto",
            "camera",
            &reg,
            Instant(1),
            &mut actions,
        )
        .unwrap();
        assert_eq!(photos.len(), 3);
        assert!(photos.schema().is_real("photo"));
        assert!(photos.schema().binding_patterns().is_empty());
        // both prototypes passive → no actions
        assert!(actions.is_empty());
        for t in photos.iter() {
            let photo = photos.schema().project_tuple_attr(t, "photo").unwrap();
            assert!(matches!(photo, Value::Blob(_)));
        }
    }

    #[test]
    fn zero_result_invocation_drops_tuple() {
        use crate::prototype::examples as protos;
        use crate::service::{FnService, StaticRegistry};
        use std::sync::Arc;
        let reg = StaticRegistry::new();
        // a sensor that never answers (empty relation result)
        reg.register(
            "mute",
            Arc::new(FnService::new(
                vec![protos::get_temperature()],
                |_, _, _| Ok(vec![]),
            )),
        );
        let schema = crate::schema::examples::sensors_schema();
        let r = XRelation::from_tuples(schema, vec![tuple!["mute", "cave"]]);
        let mut actions = ActionSet::new();
        let out = invoke(
            &r,
            "getTemperature",
            "sensor",
            &reg,
            Instant::ZERO,
            &mut actions,
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn multi_result_invocation_duplicates_tuple() {
        use crate::prototype::examples as protos;
        use crate::service::{FnService, StaticRegistry};
        use std::sync::Arc;
        let reg = StaticRegistry::new();
        // a sensor reporting two readings at once
        reg.register(
            "twin",
            Arc::new(FnService::new(
                vec![protos::get_temperature()],
                |_, _, _| {
                    Ok(vec![
                        Tuple::new(vec![Value::Real(20.0)]),
                        Tuple::new(vec![Value::Real(21.0)]),
                    ])
                },
            )),
        );
        let schema = crate::schema::examples::sensors_schema();
        let r = XRelation::from_tuples(schema, vec![tuple!["twin", "lab"]]);
        let mut actions = ActionSet::new();
        let out = invoke(
            &r,
            "getTemperature",
            "sensor",
            &reg,
            Instant::ZERO,
            &mut actions,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&tuple!["twin", "lab", 20.0]));
        assert!(out.contains(&tuple!["twin", "lab", 21.0]));
    }

    /// Registry where `sensor06` always fails; other sensors answer normally.
    fn flaky_registry() -> crate::service::StaticRegistry {
        use crate::prototype::examples as protos;
        use crate::service::FnService;
        use std::sync::Arc;
        let reg = example_registry();
        reg.register(
            "sensor06",
            Arc::new(FnService::new(
                vec![protos::get_temperature()],
                |_, _, _| Err("sensor06 is on fire".to_string()),
            )),
        );
        reg
    }

    fn invoke_degraded(degrade: DegradePolicy) -> (Result<Vec<Tuple>, EvalError>, InvokeTally) {
        let reg = flaky_registry();
        let r = sensors();
        let recipe = InvokeRecipe::prepare(r.schema(), "getTemperature", "sensor").unwrap();
        let mut actions = ActionSet::new();
        let mut tally = InvokeTally::default();
        let out = recipe.invoke_batch_observed(
            r.iter(),
            &reg,
            Instant(3),
            &mut actions,
            &mut tally,
            degrade,
        );
        (out, tally)
    }

    #[test]
    fn fail_query_policy_propagates_error() {
        let (out, tally) = invoke_degraded(DegradePolicy::FailQuery);
        assert!(matches!(out, Err(EvalError::InvocationFailed { .. })));
        assert_eq!(tally.failures, 1);
        assert_eq!(tally.degraded, 0);
    }

    #[test]
    fn drop_tuple_policy_keeps_healthy_tuples() {
        let (out, tally) = invoke_degraded(DegradePolicy::DropTuple);
        let out = out.unwrap();
        assert_eq!(out.len(), 3); // 4 sensors, one dropped
        assert_eq!(tally.invocations, 4);
        assert_eq!(tally.failures, 1);
        assert_eq!(tally.degraded, 1);
    }

    #[test]
    fn null_fill_policy_fills_type_defaults() {
        let (out, tally) = invoke_degraded(DegradePolicy::NullFill);
        let out = out.unwrap();
        assert_eq!(out.len(), 4); // every input tuple survives
        assert_eq!(tally.failures, 1);
        assert_eq!(tally.degraded, 1);
        // the failed sensor's temperature slot holds Real's default
        let filled: Vec<&Tuple> = out
            .iter()
            .filter(|t| {
                t[0].as_service_ref()
                    .is_some_and(|s| s.as_str() == "sensor06")
            })
            .collect();
        assert_eq!(filled.len(), 1);
        assert_eq!(filled[0][2], Value::Real(0.0));
    }

    /// Registry where `sensor06` panics on every call; other sensors answer
    /// normally.
    fn panicky_registry() -> crate::service::StaticRegistry {
        let reg = example_registry();
        reg.register("sensor06", crate::service::fixtures::panicking_sensor());
        reg
    }

    /// Run `f` with the default panic hook silenced, restoring it after.
    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn panicking_service_is_contained_and_counted() {
        let reg = panicky_registry();
        let r = sensors();
        let recipe = InvokeRecipe::prepare(r.schema(), "getTemperature", "sensor").unwrap();
        quiet_panics(|| {
            // FailQuery: the contained panic is the query's error
            let mut actions = ActionSet::new();
            let mut tally = InvokeTally::default();
            let err = recipe
                .invoke_batch_observed(
                    r.iter(),
                    &reg,
                    Instant(3),
                    &mut actions,
                    &mut tally,
                    DegradePolicy::FailQuery,
                )
                .unwrap_err();
            assert!(
                matches!(err, EvalError::Panicked { ref service, .. } if service == "sensor06"),
                "{err:?}"
            );
            assert_eq!(tally.panics, 1);
            assert_eq!(tally.failures, 1);
            // DropTuple: the panicking tuple degrades, the rest survive,
            // and a second batch after the contained panic answers the same
            let mut tally = InvokeTally::default();
            let out = recipe
                .invoke_batch_observed(
                    r.iter(),
                    &reg,
                    Instant(3),
                    &mut actions,
                    &mut tally,
                    DegradePolicy::DropTuple,
                )
                .unwrap();
            assert_eq!(out.len(), 3);
            assert_eq!(tally.panics, 1);
            assert_eq!(tally.degraded, 1);
            let mut tally2 = InvokeTally::default();
            let out2 = recipe
                .invoke_batch_observed(
                    r.iter(),
                    &reg,
                    Instant(3),
                    &mut actions,
                    &mut tally2,
                    DegradePolicy::DropTuple,
                )
                .unwrap();
            assert_eq!(out, out2);
        });
    }

    /// Definition 8 for a failing one-shot: `sendMessage` over 16 contacts
    /// whose first messenger fails. Under `FailQuery` the statement stops at
    /// that call — no later contact is messaged, so no effect happens that
    /// the failed query's action set would not state.
    #[test]
    fn a_failed_one_shot_calls_nothing_past_its_failure() {
        use crate::env::Environment;
        use crate::exec::ExecContext;
        use crate::physical::{ExecOptions, PhysicalPlan};
        use crate::plan::Plan;
        use crate::prototype::examples as protos;
        use crate::service::{FnService, StaticRegistry};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        const N: usize = 16;
        let calls = Arc::new(AtomicU64::new(0));
        let reg = StaticRegistry::new();
        for i in 0..N {
            let calls = Arc::clone(&calls);
            reg.register(
                format!("m{i:02}"),
                Arc::new(FnService::new(
                    vec![protos::send_message()],
                    move |_, _, _| {
                        calls.fetch_add(1, Ordering::SeqCst);
                        match i {
                            0 => Err("m00 is down".to_string()),
                            _ => Ok(vec![Tuple::new(vec![Value::Bool(true)])]),
                        }
                    },
                )),
            );
        }
        let mut env = Environment::new();
        env.declare_prototype(protos::send_message()).unwrap();
        let rows = (0..N).map(|i| {
            tuple![
                format!("c{i:02}").as_str(),
                format!("c{i:02}@example.org").as_str(),
                Value::service(format!("m{i:02}"))
            ]
        });
        let schema = crate::schema::examples::contacts_schema();
        env.define_relation("contacts", XRelation::from_tuples(schema, rows))
            .unwrap();
        let plan = Plan::relation("contacts")
            .assign_const("text", "Hi")
            .invoke("sendMessage", "messenger");
        let physical = PhysicalPlan::compile(&plan, &env).unwrap();
        let run = |degrade| {
            calls.store(0, Ordering::SeqCst);
            let ctx = ExecContext::new(&env, &reg, Instant(1))
                .with_options(ExecOptions::serial().with_degrade(degrade));
            (physical.execute(&ctx), calls.load(Ordering::SeqCst))
        };

        let (failed, made) = run(DegradePolicy::FailQuery);
        assert!(matches!(failed, Err(EvalError::InvocationFailed { .. })));
        assert_eq!(made, 1, "a failed one-shot invoked past its failure");

        let (dropped, made) = run(DegradePolicy::DropTuple);
        let dropped = dropped.unwrap();
        assert_eq!(made, N as u64);
        assert_eq!(dropped.relation.len(), N - 1);
        assert_eq!(dropped.actions.len(), N);
    }

    #[test]
    fn panic_reason_carries_string_payload() {
        let reg = panicky_registry();
        let r = sensors();
        let recipe = InvokeRecipe::prepare(r.schema(), "getTemperature", "sensor").unwrap();
        let outcomes: Vec<_> =
            quiet_panics(|| r.iter().map(|t| recipe.call(t, &reg, Instant(1))).collect());
        let panicked: Vec<&EvalError> = outcomes
            .iter()
            .filter_map(|o| o.as_ref().ok())
            .filter_map(|c| c.result.as_ref().err())
            .filter(|e| matches!(e, EvalError::Panicked { .. }))
            .collect();
        assert_eq!(panicked.len(), 1);
        assert!(panicked[0].to_string().contains("sensor firmware bug"));
    }

    #[test]
    fn unknown_service_reference_fails_eval() {
        let reg = example_registry();
        let schema = crate::schema::examples::sensors_schema();
        let r = XRelation::from_tuples(schema, vec![tuple!["sensor99", "void"]]);
        let mut actions = ActionSet::new();
        let err = invoke(
            &r,
            "getTemperature",
            "sensor",
            &reg,
            Instant::ZERO,
            &mut actions,
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::UnknownService { .. }));
    }
}
