//! Compiling a [`StreamPlan`] into the executor's node tree.

use super::*;

/// Compile one plan node and its subtree, assigning pre-order [`NodeId`]s
/// (this node first, then children left to right — the order a tick visits
/// them) and returning the node with its output schema. Every Serena
/// operator is resolved by the [`CompiledOp`] constructor the one-shot
/// physical plan uses; the plan as a whole has already passed
/// [`StreamPlan::stream_schema`], which owns the finite/infinite rules.
/// `read` says whether the node's parent reads its `current` (the root's
/// reader derives it instead): each operator states that for its operands
/// here, and a sliding node keeps `current` only where it holds.
pub(super) fn build(
    plan: &StreamPlan,
    sources: &mut SourceSet,
    next_id: &mut usize,
    read: bool,
) -> Result<(Node, SchemaRef), PlanError> {
    let id = NodeId(*next_id);
    *next_id += 1;
    let mut children = Vec::new();
    let mut operand = |p: &StreamPlan, sources: &mut SourceSet, read: bool| {
        let (node, schema) = build(p, sources, next_id, read)?;
        children.push(node);
        Ok::<_, PlanError>(schema)
    };
    // the children are cold, so whatever state the operator keeps is empty
    let serena = |(schema, op), children: &[Node]| {
        let state = OpState::over(&op, children);
        (schema, Op::Serena { op, state })
    };
    let (schema, op) = match plan {
        StreamPlan::Relation(name) => {
            if let Some(handle) = sources.tables.get(name) {
                let handle = handle.clone();
                let started = false;
                (handle.schema(), Op::Table { handle, started })
            } else if let Some((schema, hub)) = sources.streams.get(name) {
                let source = hub.subscribe();
                (schema.clone(), Op::Stream { source })
            } else {
                return Err(PlanError::UnknownRelation(name.clone()));
            }
        }
        StreamPlan::Select(p, f) => serena(
            CompiledOp::select(&operand(p, sources, false)?, f)?,
            &children,
        ),
        StreamPlan::Project(p, attrs) => serena(
            CompiledOp::project(&operand(p, sources, false)?, attrs)?,
            &children,
        ),
        StreamPlan::Rename(p, from, to) => serena(
            CompiledOp::rename(&operand(p, sources, false)?, from, to)?,
            &children,
        ),
        StreamPlan::Assign(p, attr, src) => serena(
            CompiledOp::assign(&operand(p, sources, false)?, attr, src)?,
            &children,
        ),
        StreamPlan::Union(a, b) => {
            let (sa, sb) = (operand(a, sources, true)?, operand(b, sources, true)?);
            serena(CompiledOp::union(&sa, &sb)?, &children)
        }
        StreamPlan::Intersect(a, b) => {
            let (sa, sb) = (operand(a, sources, true)?, operand(b, sources, true)?);
            serena(CompiledOp::intersect(&sa, &sb)?, &children)
        }
        StreamPlan::Difference(a, b) => {
            let (sa, sb) = (operand(a, sources, true)?, operand(b, sources, true)?);
            serena(CompiledOp::difference(&sa, &sb)?, &children)
        }
        StreamPlan::Join(a, b) => {
            let (sa, sb) = (operand(a, sources, true)?, operand(b, sources, true)?);
            serena(CompiledOp::join(&sa, &sb)?, &children)
        }
        StreamPlan::Aggregate(p, group, aggs) => serena(
            CompiledOp::aggregate(&operand(p, sources, true)?, group, aggs)?,
            &children,
        ),
        StreamPlan::Invoke(p, proto, sa) => {
            let child = operand(p, sources, false)?;
            let recipe = InvokeRecipe::prepare(&child, proto, sa.as_str())?;
            let cache = HashMap::new();
            (recipe.out_schema().clone(), Op::Invoke { recipe, cache })
        }
        StreamPlan::Window(p, period) => {
            let window = Op::Window {
                period: (*period).max(1),
                ring: VecDeque::new(),
            };
            (operand(p, sources, false)?, window)
        }
        StreamPlan::Stream(p, kind) => {
            let heartbeat = *kind == StreamKind::Heartbeat;
            (operand(p, sources, heartbeat)?, Op::StreamOf(*kind))
        }
        StreamPlan::SampleInvoke(p, proto, sa, period) => {
            let child = operand(p, sources, true)?;
            let recipe = InvokeRecipe::prepare(&child, proto, sa.as_str())?;
            let period = (*period).max(1);
            (
                recipe.out_schema().clone(),
                Op::SampleInvoke { recipe, period },
            )
        }
    };
    let current = Multiset::new();
    Ok((
        Node {
            id,
            op,
            children,
            read,
            current,
        },
        schema,
    ))
}
