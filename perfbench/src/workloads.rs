//! The four named workloads, built as [`ScenarioSpec`]s — the user's
//! own input format. All are closed-loop in simulated time; the seed
//! is passed to `ScenarioSpec::run_with`, never baked into a spec.

use vi_radio::geometry::{Point, Rect};
use vi_radio::{AdversaryKind, RadioConfig};
use vi_scenario::{
    AppKind, CmSpec, LayoutSpec, MobilitySpec, NemesisSpec, PlacementSpec, PopulationSpec,
    ScenarioSpec, TrafficSpec, WorkloadSpec,
};

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["metro_rush", "metro_static", "vi_grid", "register_audit"];

/// A named workload: the scenarios one repetition runs, and at how
/// many seeds.
pub struct Workload {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// Scenarios run at each seed of a repetition, in order.
    pub specs: Vec<ScenarioSpec>,
    /// Seeds per repetition, derived from the run's seed (see
    /// [`Workload::seeds`]). More than one where the cost of a single
    /// seed's scenarios varies too much from seed to seed.
    pub seeds_per_rep: u64,
    /// Whether the scenarios run on the engine path (CHA), where
    /// intra-round workers apply, rather than the traffic path.
    pub engine: bool,
}

impl Workload {
    /// The scenario seeds of one repetition under run seed `seed`:
    /// `seed * k .. seed * k + k`, so distinct run seeds never share
    /// a scenario seed.
    pub fn seeds(&self, seed: u64) -> Vec<u64> {
        let k = self.seeds_per_rep;
        (0..k)
            .map(|i| seed.wrapping_mul(k).wrapping_add(i))
            .collect()
    }
}

/// The workload called `name`, if there is one.
pub fn workload(name: &str) -> Option<Workload> {
    let (name, specs, seeds_per_rep, engine) = match name {
        // Each seed places another city, and one city's cost differs
        // from the next one's by about 8% between the quartiles, so a
        // repetition runs several cities.
        "metro_rush" => (
            "metro_rush",
            vec![metropolis("rush_hour", 0.60)],
            METRO_SEEDS,
            true,
        ),
        "metro_static" => (
            "metro_static",
            vec![metropolis("static_heavy", 0.02)],
            METRO_SEEDS,
            true,
        ),
        "vi_grid" => ("vi_grid", vec![register_grid(16, false)], 1, false),
        // One audit costs 1.0-1.8 s depending on the seed's history, so
        // a repetition audits several seeds' histories. The main grid is
        // 5x5 rather than 4x4: a 4x4 history's search memo straddles a
        // hash-table doubling (55 MB on most seeds, 106 MB on about one
        // in eight), which would make peak memory bimodal across seeds.
        "register_audit" => (
            "register_audit",
            vec![register_grid(5, true), register_grid(2, true)],
            AUDIT_SEEDS,
            false,
        ),
        _ => return None,
    };
    Some(Workload {
        name,
        specs,
        seeds_per_rep,
        engine,
    })
}

/// Seeds per repetition of `register_audit`.
const AUDIT_SEEDS: u64 = 6;
/// Seeds (cities) per repetition of the metropolis workloads.
const METRO_SEEDS: u64 = 4;

/// Node count of the metropolis workloads.
const METRO_NODES: usize = 20_000;
/// CHA instances (3 rounds each) of the metropolis workloads.
const METRO_INSTANCES: u64 = 10;
/// Constant-density spacing: each `R2` disk holds a handful of nodes.
const METRO_SPACING: f64 = 15.0;

/// The E18 metropolis at n = 20 000: a constant-density city of which
/// `mobile_fraction` roam as random waypoints, running CHA under the
/// randomized backoff contention manager. A copy of vi-bench's
/// `metropolis_spec`, so that edits to the experiment never change the
/// benchmark's input.
fn metropolis(mix: &str, mobile_fraction: f64) -> ScenarioSpec {
    let n = METRO_NODES;
    let side = (n as f64).sqrt() * METRO_SPACING;
    let mobile = ((n as f64) * mobile_fraction).round() as usize;
    ScenarioSpec {
        name: format!("metropolis_{mix}_{n}"),
        arena: Rect::square(side),
        radio: RadioConfig::reliable(10.0, 20.0),
        populations: vec![
            PopulationSpec::fixed(n - mobile, PlacementSpec::Uniform),
            PopulationSpec::fixed(mobile, PlacementSpec::Uniform)
                .with_mobility(MobilitySpec::Waypoint { speed: 0.5 }),
        ],
        adversary: AdversaryKind::None,
        nemesis: NemesisSpec::none(),
        cm: CmSpec::Backoff,
        workload: WorkloadSpec::ChaClique {
            instances: METRO_INSTANCES,
        },
    }
}

/// Distance between neighbouring virtual nodes (well beyond `R2`, so
/// regions do not interfere).
const GRID_SPACING: f64 = 60.0;
/// Region radius around each virtual-node location.
const REGION: f64 = 2.5;
/// Client devices clustered at each virtual node.
const CLIENTS_PER_VN: usize = 2;
/// Emulator-only devices clustered at each virtual node.
const EMULATORS_PER_VN: usize = 4;

/// Register traffic on a `k × k` virtual-node grid: at each node,
/// [`CLIENTS_PER_VN`] client devices and [`EMULATORS_PER_VN`] more
/// emulators in a tight static cluster. Closed loop, one op
/// outstanding per client, think time 2 virtual rounds, 50% reads.
pub fn register_grid(k: usize, audit: bool) -> ScenarioSpec {
    let origin = Point::new(50.0, 50.0);
    let locations: Vec<Point> = (0..k)
        .flat_map(|r| {
            (0..k).map(move |c| {
                Point::new(
                    origin.x + c as f64 * GRID_SPACING,
                    origin.y + r as f64 * GRID_SPACING,
                )
            })
        })
        .collect();
    let cluster = |count: usize, center: Point| {
        PopulationSpec::fixed(
            count,
            PlacementSpec::Cluster {
                center,
                radius: 0.4,
            },
        )
    };
    // Client ports run on the first `clients` devices in population
    // order, so every client population precedes every emulator one.
    let populations = locations
        .iter()
        .map(|&loc| cluster(CLIENTS_PER_VN, loc))
        .chain(locations.iter().map(|&loc| cluster(EMULATORS_PER_VN, loc)))
        .collect();
    let clients = CLIENTS_PER_VN * k * k;
    ScenarioSpec {
        name: format!(
            "register_grid_{k}x{k}{}",
            if audit { "_audited" } else { "" }
        ),
        arena: Rect::square((k - 1) as f64 * GRID_SPACING + 100.0),
        radio: RadioConfig::reliable(10.0, 20.0),
        populations,
        adversary: AdversaryKind::None,
        nemesis: NemesisSpec::none(),
        cm: CmSpec::perfect(),
        workload: WorkloadSpec::Traffic {
            app: AppKind::Register,
            layout: LayoutSpec::Grid {
                rows: k,
                cols: k,
                spacing: GRID_SPACING,
                origin,
                region_radius: REGION,
            },
            traffic: TrafficSpec::closed(clients, 1, 2, 40).with_query_fraction(0.5),
            audit,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_builds_valid_specs() {
        for name in NAMES {
            let w = workload(name).expect("named workload");
            assert_eq!(w.name, name);
            assert!(!w.specs.is_empty());
            for spec in &w.specs {
                spec.validate().expect("valid spec");
            }
        }
        assert!(workload("nope").is_none());
        let w = workload("register_audit").expect("named workload");
        assert_eq!(w.seeds(2), (12..18).collect::<Vec<u64>>());
        assert_eq!(workload("vi_grid").expect("named").seeds(7), vec![7]);
    }

    #[test]
    fn grid_shapes_match_their_descriptions() {
        let spec = register_grid(16, false);
        assert_eq!(spec.node_count(), 1536);
        let WorkloadSpec::Traffic { traffic, .. } = &spec.workload else {
            panic!("traffic workload");
        };
        assert_eq!(traffic.clients, 512);
        assert_eq!(register_grid(5, true).node_count(), 150);
    }
}
