//! Inputs, generated from `--seed` alone: the fleet description, the
//! arrival batches, the `rooms` churn and the one-shot statement cycle.
//!
//! The product receives only what is generated here — no fixture inside
//! the product feeds a workload.

use crate::model::{Cell, Row, Stmt, StmtClass};

/// xorshift64* — small, seedable, and the benchmark's own.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream `salt` (so two uses of one seed
    /// do not replay each other).
    pub fn new(seed: u64, salt: u64) -> Self {
        // splitmix the pair so seed 0 and small seeds still start well mixed
        let mut z = seed
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s = 1) over `0..n` by inverse CDF.
pub struct Zipf(Vec<f64>);

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf(cdf)
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.0.partition_point(|c| *c <= u).min(self.0.len() - 1)
    }
}

pub fn area_name(i: usize) -> String {
    format!("area{i:02}")
}

/// Temperatures lie on a 1/8 °C grid between 15 and 33 °C, so sums and
/// averages are exact in `f64` whatever the summation order.
const TEMP_STEPS: usize = 144;

fn temperature(rng: &mut Rng) -> f64 {
    15.0 + rng.below(TEMP_STEPS + 1) as f64 * 0.125
}

/// `count` instants of `per_instant` `readings(location, temperature)`
/// rows, locations zipf-skewed over `areas`.
pub fn arrivals(seed: u64, areas: usize, per_instant: usize, count: usize) -> Vec<Vec<Row>> {
    let mut rng = Rng::new(seed, 0xA771);
    let zipf = Zipf::new(areas);
    (0..count)
        .map(|_| {
            (0..per_instant)
                .map(|_| {
                    vec![
                        Cell::S(area_name(zipf.draw(&mut rng))),
                        Cell::R(temperature(&mut rng)),
                    ]
                })
                .collect()
        })
        .collect()
}

fn messenger_name(i: usize) -> String {
    format!("messenger{i:02}")
}

/// `(name, address, location, messenger)`.
pub fn contact(i: usize, areas: usize, messengers: usize) -> Row {
    vec![
        Cell::S(format!("c{i:05}")),
        Cell::S(format!("c{i:05}@example.org")),
        Cell::S(area_name(i % areas)),
        Cell::Svc(messenger_name(i % messengers)),
    ]
}

/// `(location, floor, owner)`; owners are unique, so rows are.
pub fn room(i: usize, areas: usize) -> Row {
    vec![
        Cell::S(area_name(i % areas)),
        Cell::I((i / areas % 8) as i64),
        Cell::S(format!("owner{i:05}")),
    ]
}

/// The rooms the driver inserts before instant `i` (`per_tick` fresh rows)
/// and deletes (`per_tick` rows it inserted `lag` instants earlier), so the
/// table keeps its size whatever the run length.
pub fn room_churn(
    base_rooms: usize,
    areas: usize,
    per_tick: usize,
    lag: usize,
    i: usize,
) -> (Vec<Row>, Vec<Row>) {
    let fresh = |at: usize| -> Vec<Row> {
        (0..per_tick)
            .map(|k| room(base_rooms + at * per_tick + k, areas))
            .collect()
    };
    let deletes = if i >= lag { fresh(i - lag) } else { Vec::new() };
    (fresh(i), deletes)
}

/// Sizes of the one-shot statement cycle.
#[derive(Debug, Clone, Copy)]
pub struct StmtMix {
    /// Statements per cycle; a whole number of intervals.
    pub cycle: usize,
    /// Statements between two inventory ticks.
    pub interval: usize,
    pub areas: usize,
    pub sensors: usize,
    pub base_contacts: usize,
    pub base_rooms: usize,
    pub messengers: usize,
}

impl StmtMix {
    /// `INSERT`s (and as many `DELETE`s) per interval: 18 % writes.
    fn writes_per_interval(&self) -> usize {
        (self.interval * 9 / 100).max(1)
    }

    fn intervals(&self) -> usize {
        self.cycle / self.interval
    }

    fn extra_id(&self, generation: usize, k: usize) -> usize {
        self.base_contacts + generation * self.writes_per_interval() + k
    }

    /// The `contacts` rows a run starts with beyond the base ones: what
    /// the cycle's last interval inserts, so that its first interval finds
    /// them to delete on the first pass as on every later one.
    pub fn preloaded_contacts(&self) -> Vec<Row> {
        (0..self.writes_per_interval())
            .map(|k| {
                contact(
                    self.extra_id(self.intervals() - 1, k),
                    self.areas,
                    self.messengers,
                )
            })
            .collect()
    }
}

/// One cycle of statements in seeded order: 35 % σπ, 20 % passive β, 10 %
/// GROUP BY, 10 % active β, 5 % join, 18 % INSERT/DELETE, 2 %
/// REGISTER+UNREGISTER, in every interval alike.
///
/// Interval *k* inserts generation *k* and deletes generation *k − 1*: a
/// row is never inserted and deleted between two ticks (the table manager
/// clamps a pending delete against the committed contents, so the pair
/// would leave the row behind). With [`StmtMix::preloaded_contacts`] the
/// cycle ends in the state it started from, so it can be replayed for as
/// long as a run lasts and the expected row counts stay valid.
pub fn statements(seed: u64, mix: StmtMix) -> Vec<Stmt> {
    let mut rng = Rng::new(seed, 0x5A1);
    let writes = mix.writes_per_interval();
    let share = |percent: usize| (mix.interval * percent / 100).max(1);
    let mut composition = Vec::with_capacity(mix.interval);
    composition.extend(std::iter::repeat_n(StmtClass::PassiveBeta, share(20)));
    composition.extend(std::iter::repeat_n(StmtClass::GroupBy, share(10)));
    composition.extend(std::iter::repeat_n(StmtClass::ActiveBeta, share(10)));
    composition.extend(std::iter::repeat_n(StmtClass::Join, share(5)));
    composition.extend(std::iter::repeat_n(StmtClass::Insert, writes));
    composition.extend(std::iter::repeat_n(StmtClass::Delete, writes));
    composition.extend(std::iter::repeat_n(StmtClass::RegisterCycle, share(2)));
    let rest = mix.interval.saturating_sub(composition.len());
    composition.extend(std::iter::repeat_n(StmtClass::SelectContacts, rest));

    let sensors_in = |area: usize| (mix.sensors + mix.areas - 1 - area) / mix.areas;
    let base_contacts_in = |area: usize| (mix.base_contacts + mix.areas - 1 - area) / mix.areas;
    let mut extra_in = vec![0usize; mix.areas];
    for k in 0..writes {
        extra_in[mix.extra_id(mix.intervals() - 1, k) % mix.areas] += 1;
    }
    let mut registrations = 0usize;
    let mut out = Vec::with_capacity(mix.cycle);

    for interval in 0..mix.intervals() {
        let mut classes = composition.clone();
        rng.shuffle(&mut classes);
        let previous = (interval + mix.intervals() - 1) % mix.intervals();
        let mut to_delete: Vec<usize> = (0..writes).map(|k| mix.extra_id(previous, k)).collect();
        rng.shuffle(&mut to_delete);
        let mut inserted = 0usize;
        for class in classes {
            out.push(match class {
                StmtClass::SelectContacts => {
                    let area = rng.below(mix.areas);
                    Stmt {
                        class,
                        text: format!(
                            "SELECT name, address FROM contacts WHERE location = '{}';",
                            area_name(area)
                        ),
                        expect_rows: Some(base_contacts_in(area) + extra_in[area]),
                        expect_actions: 0,
                    }
                }
                StmtClass::PassiveBeta => {
                    let area = rng.below(mix.areas);
                    Stmt {
                        class,
                        text: format!(
                            "SELECT sensor, temperature FROM sensors \
                             USING getTemperature[sensor] WHERE location = '{}';",
                            area_name(area)
                        ),
                        expect_rows: Some(sensors_in(area)),
                        expect_actions: 0,
                    }
                }
                StmtClass::GroupBy => Stmt {
                    class,
                    text: "SELECT location, count(sensor) AS n FROM sensors GROUP BY location;"
                        .to_string(),
                    expect_rows: Some(mix.areas.min(mix.sensors)),
                    expect_actions: 0,
                },
                StmtClass::ActiveBeta => {
                    let who = rng.below(mix.base_contacts);
                    Stmt {
                        class,
                        text: format!(
                            "SELECT sent FROM contacts WITH text := 'ping' \
                             USING sendMessage[messenger] WHERE name = 'c{who:05}';"
                        ),
                        expect_rows: Some(1),
                        expect_actions: 1,
                    }
                }
                StmtClass::Join => {
                    let area = rng.below(mix.areas);
                    let floor = rng.below(8);
                    let rooms_here = (0..mix.base_rooms)
                        .filter(|i| i % mix.areas == area && i / mix.areas % 8 == floor)
                        .count();
                    Stmt {
                        class,
                        text: format!(
                            "SELECT sensor, owner FROM sensors, rooms \
                             WHERE location = '{}' AND floor = {floor};",
                            area_name(area)
                        ),
                        expect_rows: Some(sensors_in(area) * rooms_here),
                        expect_actions: 0,
                    }
                }
                StmtClass::Insert | StmtClass::Delete => {
                    let (verb, id) = if class == StmtClass::Insert {
                        inserted += 1;
                        let id = mix.extra_id(interval, inserted - 1);
                        extra_in[id % mix.areas] += 1;
                        ("INSERT INTO", id)
                    } else {
                        let id = to_delete.pop().expect("as many deletes as inserts");
                        extra_in[id % mix.areas] -= 1;
                        ("DELETE FROM", id)
                    };
                    Stmt {
                        class,
                        text: format!(
                            "{verb} contacts VALUES \
                             ('c{id:05}', 'c{id:05}@example.org', '{}', '{}');",
                            area_name(id % mix.areas),
                            messenger_name(id % mix.messengers)
                        ),
                        expect_rows: None,
                        expect_actions: 0,
                    }
                }
                StmtClass::RegisterCycle => {
                    let name = format!("adhoc{registrations}");
                    registrations += 1;
                    Stmt {
                        class,
                        text: format!(
                            "REGISTER QUERY {name} AS \
                             SELECT[temperature > 30.0](WINDOW[4](readings)); \
                             UNREGISTER QUERY {name};"
                        ),
                        expect_rows: None,
                        expect_actions: 0,
                    }
                }
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        let a = arrivals(7, 64, 32, 10);
        assert_eq!(a, arrivals(7, 64, 32, 10));
        assert_ne!(a, arrivals(8, 64, 32, 10));
        let mix = StmtMix {
            cycle: 400,
            interval: 100,
            areas: 8,
            sensors: 50,
            base_contacts: 40,
            base_rooms: 64,
            messengers: 3,
        };
        let text =
            |s: u64| -> Vec<String> { statements(s, mix).into_iter().map(|s| s.text).collect() };
        assert_eq!(text(1), text(1));
        assert_ne!(text(1), text(2));
    }

    #[test]
    fn arrivals_are_skewed_and_on_the_temperature_grid() {
        let rows: Vec<Row> = arrivals(3, 64, 256, 20).into_iter().flatten().collect();
        let head = rows
            .iter()
            .filter(|r| matches!(&r[0], Cell::S(l) if l.as_str() < "area08"))
            .count();
        assert!(head * 2 > rows.len(), "no skew: {head}/{}", rows.len());
        assert!(rows.iter().all(|r| match r[1] {
            Cell::R(t) => (15.0..=33.0).contains(&t) && (t * 8.0).fract() == 0.0,
            _ => false,
        }));
    }

    #[test]
    fn statement_cycle_restores_what_it_changes_and_has_every_class() {
        let mix = StmtMix {
            cycle: 2_000,
            interval: 100,
            areas: 64,
            sensors: 2_000,
            base_contacts: 1_000,
            base_rooms: 512,
            messengers: 30,
        };
        let cycle = statements(11, mix);
        assert_eq!(cycle.len(), 2_000);
        let count = |c: StmtClass| cycle.iter().filter(|s| s.class == c).count();
        for class in StmtClass::ALL {
            let n = count(class);
            assert!(n > 0, "{class:?} absent");
            assert!(n * 100 <= 40 * cycle.len(), "{class:?} over 40 %");
        }
        assert_eq!(count(StmtClass::Insert), count(StmtClass::Delete));
        // replaying the writes over the preloaded rows ends where it began,
        // and no row is inserted and deleted within one interval
        let key = |text: &str| text.split('\'').nth(1).map(str::to_string);
        let mut live: std::collections::BTreeSet<String> = mix
            .preloaded_contacts()
            .iter()
            .map(|r| match &r[0] {
                Cell::S(name) => name.clone(),
                _ => unreachable!("contact names are strings"),
            })
            .collect();
        let start = live.clone();
        for chunk in cycle.chunks(mix.interval) {
            let mut inserted_here = std::collections::BTreeSet::new();
            for s in chunk {
                match s.class {
                    StmtClass::Insert => {
                        let k = key(&s.text).unwrap();
                        inserted_here.insert(k.clone());
                        assert!(live.insert(k));
                    }
                    StmtClass::Delete => {
                        let k = key(&s.text).unwrap();
                        assert!(
                            !inserted_here.contains(&k),
                            "{k} inserted and deleted between ticks"
                        );
                        assert!(live.remove(&k), "{k} deleted but absent");
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(live, start);
    }

    #[test]
    fn room_churn_keeps_the_table_size() {
        let mut live = std::collections::BTreeSet::new();
        for i in 0..100 {
            let (ins, del) = room_churn(512, 64, 2, 8, i);
            for r in del {
                assert!(live.remove(&r), "deleting a row never inserted");
            }
            for r in ins {
                assert!(live.insert(r));
            }
        }
        assert_eq!(live.len(), 16);
    }
}
