//! Product-neutral data the generator, the workloads and the oracle share.
//!
//! Nothing here names a `serena_*` type: `sut.rs` converts these values to
//! the product's tuples, plans and statements, and converts results back,
//! so an API rename in the product is a one-file diff.

use std::cmp::Ordering;

/// One attribute value of a generated or returned tuple.
#[derive(Debug, Clone)]
pub enum Cell {
    /// STRING attribute.
    S(String),
    /// SERVICE attribute (a service reference).
    Svc(String),
    /// INTEGER attribute.
    I(i64),
    /// REAL attribute.
    R(f64),
    /// BOOLEAN attribute.
    B(bool),
}

impl Cell {
    /// Reals are compared on a 10⁻⁶ grid so the naive oracle and the
    /// product may sum an average in different orders.
    fn real_key(x: f64) -> i64 {
        (x * 1e6).round() as i64
    }

    fn rank(&self) -> u8 {
        match self {
            Cell::S(_) => 0,
            Cell::Svc(_) => 1,
            Cell::I(_) => 2,
            Cell::R(_) => 3,
            Cell::B(_) => 4,
        }
    }
}

impl PartialEq for Cell {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Cell {}
impl PartialOrd for Cell {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cell {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Cell::S(a), Cell::S(b)) | (Cell::Svc(a), Cell::Svc(b)) => a.cmp(b),
            (Cell::I(a), Cell::I(b)) => a.cmp(b),
            (Cell::R(a), Cell::R(b)) => Cell::real_key(*a).cmp(&Cell::real_key(*b)),
            (Cell::B(a), Cell::B(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

/// A tuple as the benchmark sees it.
pub type Row = Vec<Cell>;

/// Aggregate of a `GroupBy` query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// `avg(temperature)`.
    Avg,
    /// `max(temperature)`.
    Max,
    /// `count(temperature)`.
    Count,
}

/// A continuous query, described by shape. `readings(location, temperature)`
/// is the push stream, `rooms(location, floor, owner)`, `sensors`, `cameras`
/// and `contacts` are the tables of `sut::Runtime::declare`.
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySpec {
    /// `W[w](readings)` — the bare window (layer probe only).
    Window { window: u64 },
    /// `σ_{temperature>θ}(W[w](readings))`.
    Hot { window: u64, theta: f64 },
    /// `σ_{location=area}(W[w](readings))`.
    Area { window: u64, area: String },
    /// `π_location(W[w](readings))`.
    Locations { window: u64 },
    /// `sensors` (the discovery-maintained inventory).
    Inventory,
    /// `contacts` as a changing relation (commits one-shot writes).
    ContactsWatch,
    /// `γ_{location; agg(temperature)}(W[w](readings))`.
    GroupBy { window: u64, agg: Agg },
    /// `σ_{temperature>θ}(W[w](readings)) ⋈ rooms`.
    JoinRooms { window: u64, theta: f64 },
    /// `π_location(W[w](readings)) ∪ π_location(rooms)`.
    UnionRooms { window: u64 },
    /// `π_location(rooms) − π_location(W[w](readings))` (bag difference).
    RoomsMinusSeen { window: u64 },
    /// `βˢ_{getTemperature[sensor], 1}(sensors)` — every sensor, every instant.
    Sample,
    /// `β_{checkPhoto[camera]}(cameras)` — passive, β-cached.
    CameraCheck,
    /// Q3's shape: `β_sendMessage(α_text(contacts ⋈ σ_{temperature>θ}(W[1](readings))))`.
    Alert { theta: f64 },
}

impl QuerySpec {
    /// Whether the query reads the `readings` push stream.
    pub fn subscribes_readings(&self) -> bool {
        matches!(
            self,
            QuerySpec::Window { .. }
                | QuerySpec::Hot { .. }
                | QuerySpec::Area { .. }
                | QuerySpec::Locations { .. }
                | QuerySpec::GroupBy { .. }
                | QuerySpec::JoinRooms { .. }
                | QuerySpec::UnionRooms { .. }
                | QuerySpec::RoomsMinusSeen { .. }
                | QuerySpec::Alert { .. }
        )
    }

    /// The span a standalone tick of this query is recorded under: its
    /// operator family.
    pub fn family(&self) -> &'static str {
        match self {
            QuerySpec::Window { .. } => "stream.window",
            QuerySpec::Hot { .. } | QuerySpec::Area { .. } | QuerySpec::Locations { .. } => {
                "stream.linear"
            }
            QuerySpec::Inventory | QuerySpec::ContactsWatch => "stream.table",
            QuerySpec::GroupBy { .. } => "stream.aggregate",
            QuerySpec::JoinRooms { .. } => "stream.join",
            QuerySpec::UnionRooms { .. } | QuerySpec::RoomsMinusSeen { .. } => "stream.setop",
            QuerySpec::Sample => "stream.sample",
            QuerySpec::CameraCheck | QuerySpec::Alert { .. } => "stream.beta",
        }
    }

    /// Whether the query re-evaluates a `recompute()` node every tick.
    pub fn recomputes(&self) -> bool {
        matches!(
            self.family(),
            "stream.aggregate" | "stream.join" | "stream.setop"
        )
    }

    /// Whether the oracle can recompute the query's relation from the
    /// generated batches alone (no service output involved).
    pub fn oracle_checked(&self) -> bool {
        self.subscribes_readings() && !matches!(self, QuerySpec::Alert { .. })
    }
}

/// Statement classes of the `oneshot_sql` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StmtClass {
    /// σπ over `contacts`.
    SelectContacts,
    /// Passive β over the sensors of one area.
    PassiveBeta,
    /// `GROUP BY` over `sensors`.
    GroupBy,
    /// Active β: `sendMessage` to one contact.
    ActiveBeta,
    /// `sensors ⋈ rooms` with a selective predicate.
    Join,
    /// `INSERT INTO contacts`.
    Insert,
    /// `DELETE FROM contacts`.
    Delete,
    /// `REGISTER QUERY` then `UNREGISTER QUERY` of the same name, as one
    /// program: a checkpoint between operations never sees an ad-hoc query
    /// a restore target would lack.
    RegisterCycle,
}

impl StmtClass {
    /// Every class, for share accounting.
    #[cfg(test)]
    pub const ALL: [StmtClass; 8] = [
        StmtClass::SelectContacts,
        StmtClass::PassiveBeta,
        StmtClass::GroupBy,
        StmtClass::ActiveBeta,
        StmtClass::Join,
        StmtClass::Insert,
        StmtClass::Delete,
        StmtClass::RegisterCycle,
    ];

    /// `SELECT` statements go through `run_sql`; the rest through
    /// `run_program`.
    pub fn is_select(self) -> bool {
        matches!(
            self,
            StmtClass::SelectContacts
                | StmtClass::PassiveBeta
                | StmtClass::GroupBy
                | StmtClass::ActiveBeta
                | StmtClass::Join
        )
    }
}

/// One generated statement with what the oracle expects of it.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub class: StmtClass,
    pub text: String,
    /// Row count a naive scan of the generated data predicts (`None`
    /// where the statement returns no relation).
    pub expect_rows: Option<usize>,
    /// Active invocations the statement must report.
    pub expect_actions: usize,
}

/// What one operation returned, reduced to what the digest and the
/// failure count need.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OpOutcome {
    /// Query-ticks or statements attempted by the operation.
    pub attempted: u64,
    /// Of those, how many reported an error (or returned `Err`).
    pub failed: u64,
    /// Reports returned by the tick (0 for a statement).
    pub reports: u64,
    /// Tuples out: inserts + deletes + batch, or rows returned.
    pub tuples_out: u64,
    /// Active invocations reported.
    pub actions: u64,
    /// FNV digest of the operation's observable output.
    pub digest: u64,
}
