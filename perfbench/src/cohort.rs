//! The `cohort` workload: the deployment study end to end.
//!
//! The timed runs call `run_study` as is. [`run_traceable`] repeats the
//! study's per-participant steps through the public seams (a wrapped
//! position source, a wrapped cloud transport, plain calls into each
//! layer), so a traced run can time every layer, and its per-participant
//! results must equal the timed runs' results exactly.

use std::sync::{Arc, Mutex};

use crossbeam::channel::Receiver;
use pmware_algorithms::matching::{classify_places, GroundTruthVisit, MatchOutcome};
use pmware_algorithms::signature::{DiscoveredPlace, DiscoveredPlaceId, PlaceSignature};
use pmware_apps::{AdInventory, LifeLogApp, PlaceAdsApp, UserTasteModel};
use pmware_bench::deployment::{ParticipantResult, StudyConfig, StudyResults};
use pmware_bench::parallel::parallel_map;
use pmware_cloud::{CellDatabase, CloudEndpoint, CloudInstance, SharedCloud};
use pmware_core::intents::Intent;
use pmware_core::pms::{PmsConfig, PmwareMobileService};
use pmware_core::registry::PmPlaceId;
use pmware_device::{Device, EnergyModel, Interface};
use pmware_geo::GeoPoint;
use pmware_mobility::{AgentProfile, Itinerary, Population};
use pmware_obs::Obs;
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::radio::{GsmScratch, RadioConfig, RadioEnvironment, WifiScratch};
use pmware_world::{SimTime, WifiScan, World};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tap::{CloudTap, PositionTap, TrafficStats};
use crate::trace;

/// Cohort size and parallelism.
#[derive(Debug, Clone, Copy)]
pub struct CohortSize {
    /// Participants.
    pub participants: usize,
    /// Study days.
    pub days: u64,
    /// Worker threads.
    pub threads: usize,
}

impl CohortSize {
    /// Participant-days simulated by one study.
    pub fn pdays(&self) -> f64 {
        (self.participants as u64 * self.days) as f64
    }
}

/// The `run_study` configuration for `seed` at `size`.
pub fn study_config(seed: u64, size: CohortSize) -> StudyConfig {
    StudyConfig {
        participants: size.participants,
        days: size.days,
        seed,
        region: RegionProfile::urban_india(),
        threads: size.threads,
        obs: Obs::disabled(),
        offload_batch_days: 0,
        storage: None,
    }
}

/// The study's inputs: world, population and itineraries.
pub struct Inputs {
    /// The world.
    pub world: World,
    /// The population.
    pub population: Population,
    /// One itinerary per agent, in agent order.
    pub itineraries: Vec<Itinerary>,
}

/// Builds the study's inputs exactly as `run_study` derives them.
pub fn build_inputs(seed: u64, size: CohortSize) -> Inputs {
    let world = trace::span("world.build", 0, || {
        WorldBuilder::new(RegionProfile::urban_india())
            .seed(seed)
            .build()
    });
    let population = trace::span("mobility.population", 0, || {
        Population::generate(&world, size.participants, seed + 2)
    });
    let itineraries = population
        .agents()
        .iter()
        .map(|agent| {
            trace::span("mobility.itinerary", agent.id().0, || {
                population.itinerary(&world, agent.id(), size.days)
            })
        })
        .collect();
    Inputs {
        world,
        population,
        itineraries,
    }
}

/// What a traceable run learned about one participant besides its result.
#[derive(Debug, Clone, Default)]
pub struct ParticipantStats {
    /// Cloud traffic.
    pub traffic: TrafficStats,
    /// Client retries.
    pub retries: u64,
    /// `position_at` calls.
    pub position_calls: u64,
    /// Positions kept for the radio probe.
    pub positions: Vec<(GeoPoint, SimTime)>,
    /// GSM samples, WiFi scans and GPS fixes the phone paid for.
    pub radio_samples: [f64; 3],
}

/// Output of [`run_traceable`].
pub struct TraceableRun {
    /// Study results, comparable with `run_study`'s.
    pub results: StudyResults,
    /// Per-participant side data, in participant order.
    pub stats: Vec<ParticipantStats>,
}

/// Runs the study through the benchmark's own per-participant loop, over
/// the seams the tracer can see. With `probe`, keeps positions for the
/// radio probe.
pub fn run_traceable(inputs: &Inputs, seed: u64, size: CohortSize, probe: bool) -> TraceableRun {
    let world = &inputs.world;
    let cloud = trace::span("cloud.setup", 0, || {
        SharedCloud::new(CloudInstance::new(
            CellDatabase::from_world(world),
            seed + 1,
        ))
    });
    let jobs: Vec<_> = inputs
        .population
        .agents()
        .iter()
        .zip(&inputs.itineraries)
        .collect();
    let out = trace::span("bench.parallel", 0, || {
        let parent = trace::current();
        parallel_map(jobs, size.threads, |(agent, itinerary)| {
            let index = agent.id().0;
            let out = trace::span_under("bench.participant", index, Some(parent), || {
                let positions = PositionTap::new(itinerary, probe);
                let mut phone = Phone::new(
                    world,
                    agent,
                    seed,
                    &positions,
                    CloudTap::new(cloud.clone(), index, None),
                );
                for day in 1..=size.days {
                    phone.step(day);
                }
                phone.finish(size.days)
            });
            trace::flush_thread();
            out
        })
    });
    let (participants, stats) = out.into_iter().unzip();
    TraceableRun {
        results: StudyResults {
            participants,
            cloud_requests: cloud.total_requests(),
        },
        stats,
    }
}

/// One participant's phone with its two apps, set up and stepped exactly
/// as the deployment study does it. [`run_traceable`] steps one phone
/// through every day; the stream recorder steps all phones one day at a time.
pub struct Phone<'a> {
    index: u32,
    positions: &'a PositionTap<'a>,
    pms: PmwareMobileService<'a, &'a PositionTap<'a>>,
    log_rx: Receiver<Intent>,
    ads_rx: Receiver<Intent>,
    lifelog: LifeLogApp,
    placeads: PlaceAdsApp,
    taste: UserTasteModel,
    traffic: Arc<Mutex<TrafficStats>>,
}

impl<'a> Phone<'a> {
    /// Registers participant `agent` of a study seeded `seed`, talking to
    /// the cloud through `tap` and moving along `positions`.
    pub fn new(
        world: &'a World,
        agent: &AgentProfile,
        seed: u64,
        positions: &'a PositionTap<'a>,
        tap: CloudTap,
    ) -> Self {
        let index = agent.id().0;
        let traffic = tap.stats();
        let device = Device::new(
            RadioEnvironment::new(world, RadioConfig::default()),
            positions,
            EnergyModel::htc_explorer(),
            seed + 200 + u64::from(index),
        );
        let mut pms = trace::span("core.pms.register", index, || {
            PmwareMobileService::new(
                device,
                CloudEndpoint::new(tap),
                PmsConfig::for_participant(index),
                SimTime::EPOCH,
            )
            .expect("registration succeeds")
        });
        pms.set_obs(&Obs::disabled().for_actor(&format!("p{index:04}")));
        let ads_rx = pms.register_app(
            "placeads",
            PlaceAdsApp::requirement(),
            PlaceAdsApp::filter(),
        );
        let log_rx = pms.register_app("lifelog", LifeLogApp::requirement(), LifeLogApp::filter());
        Phone {
            index,
            positions,
            pms,
            log_rx,
            ads_rx,
            lifelog: LifeLogApp::new(agent.tag_probability(), seed + 300 + u64::from(index)),
            placeads: PlaceAdsApp::new(AdInventory::from_world(world)),
            taste: UserTasteModel::from_agent(agent, seed + 100 + u64::from(index)),
            traffic,
        }
    }

    /// Runs the phone through sim-day `day`, then lets the apps react: the
    /// user tags places and swipes the day's ad cards.
    pub fn step(&mut self, day: u64) {
        let index = self.index;
        trace::span("core.pms.run", index, || {
            self.pms
                .run(SimTime::from_day_time(day, 0, 0, 0))
                .expect("run never fails after registration")
        });
        trace::span("apps", index, || {
            for intent in self.log_rx.try_iter() {
                self.lifelog.on_intent(&intent);
            }
            for (place, label) in self.lifelog.take_pending_labels() {
                self.pms.label_place(PmPlaceId(place), label);
            }
            for intent in self.ads_rx.try_iter().collect::<Vec<_>>() {
                if let Some(card) = self.placeads.on_intent(&intent) {
                    let true_position = self.positions.itinerary().position_at(card.served_at);
                    let _ = self.taste.swipe(&card, true_position);
                }
            }
        });
    }

    /// The phone's current bearer token.
    pub fn token(&mut self) -> String {
        self.pms.cloud_client_mut().state().token
    }

    /// Ends the study after `days` days and scores the discovered places
    /// against the itinerary's ground truth.
    pub fn finish(mut self, days: u64) -> (ParticipantResult, ParticipantStats) {
        let index = self.index;
        let retries = self.pms.cloud_client_mut().retries();
        let end = SimTime::from_day_time(days, 0, 0, 0);
        let report = trace::span("core.pms.finish", index, || self.pms.finish(end));

        let discovered: Vec<DiscoveredPlace> = report
            .places
            .iter()
            .map(|p| {
                let mut d = DiscoveredPlace::new(
                    DiscoveredPlaceId(p.id.0),
                    PlaceSignature::Cells(p.cells.clone()),
                    p.gca_visits.clone(),
                );
                d.label = p.label.clone();
                d
            })
            .collect();
        let truth: Vec<GroundTruthVisit> = self
            .positions
            .itinerary()
            .visits()
            .iter()
            .map(|v| GroundTruthVisit {
                place: v.place,
                arrival: v.arrival,
                departure: v.departure,
            })
            .collect();
        let matching = trace::span("algorithms.matching", index, || {
            classify_places(&discovered, &truth, 0.2)
        });
        let evaluable: std::collections::BTreeSet<u32> =
            self.lifelog.evaluable_places().into_iter().collect();
        let (mut correct, mut merged, mut divided) = (0, 0, 0);
        for m in &matching.matches {
            if !evaluable.contains(&m.discovered.0) {
                continue;
            }
            match m.outcome {
                MatchOutcome::Correct => correct += 1,
                MatchOutcome::Merged => merged += 1,
                MatchOutcome::Divided => divided += 1,
                MatchOutcome::NoMatch => {}
            }
        }
        let tagged_live = report.places.iter().filter(|p| p.label.is_some()).count();
        let result = ParticipantResult {
            discovered: report.places.len(),
            tagged: tagged_live,
            evaluable: correct + merged + divided,
            correct,
            merged,
            divided,
            likes: self.taste.likes(),
            dislikes: self.taste.dislikes(),
            energy_joules: report.energy_joules,
        };

        let model = EnergyModel::htc_explorer();
        let mut radio_samples = [0.0; 3];
        for (interface, joules) in &report.energy_by_interface {
            let slot = match interface {
                Interface::Gsm => 0,
                Interface::WifiScan => 1,
                Interface::Gps => 2,
                _ => continue,
            };
            radio_samples[slot] += joules / model.sample_cost_j(*interface);
        }
        let stats = ParticipantStats {
            traffic: self.traffic.lock().expect("tap stats poisoned").clone(),
            retries,
            position_calls: self.positions.calls(),
            positions: self.positions.take_samples(),
            radio_samples,
        };
        (result, stats)
    }
}

/// Checks a timed study against the traceable run's and against the ranges the
/// paper's study lands in; returns one message per failed check.
pub fn check(timed: &StudyResults, reference: &StudyResults) -> Vec<String> {
    let mut failures = Vec::new();
    if timed.participants.len() != reference.participants.len() {
        failures.push(format!(
            "{} participants, the traceable run has {}",
            timed.participants.len(),
            reference.participants.len()
        ));
    }
    for (i, (a, b)) in timed
        .participants
        .iter()
        .zip(&reference.participants)
        .enumerate()
    {
        if a != b {
            failures.push(format!(
                "participant {i}: run_study {a:?} != traceable run {b:?}"
            ));
        }
    }
    if timed.cloud_requests != reference.cloud_requests {
        failures.push(format!(
            "cloud requests: run_study {} != traceable run {}",
            timed.cloud_requests, reference.cloud_requests
        ));
    }
    failures.extend(range_failures(timed));
    failures
}

/// Paper-shaped ranges (§4: 123 places for 16 people, ~70 % tagged,
/// ~79 % correct, 85 % likes; GSM-every-minute energy budgets).
fn range_failures(r: &StudyResults) -> Vec<String> {
    let n = r.participants.len().max(1) as f64;
    let checks = [
        (
            "places per participant",
            r.total_discovered() as f64 / n,
            2.0,
            30.0,
        ),
        ("tagged fraction", r.tagged_fraction(), 0.3, 1.0),
        ("correct fraction", r.correct_fraction(), 0.5, 1.0),
        ("like fraction", r.like_fraction(), 0.5, 1.0),
    ];
    let mut failures: Vec<String> = checks
        .iter()
        .filter(|(_, v, lo, hi)| !(lo..=hi).contains(&v))
        .map(|(name, v, lo, hi)| format!("{name} {v:.4} outside [{lo}, {hi}]"))
        .collect();
    for (i, p) in r.participants.iter().enumerate() {
        if p.evaluable != p.correct + p.merged + p.divided || p.energy_joules <= 0.0 {
            failures.push(format!("participant {i} is inconsistent: {p:?}"));
        }
    }
    failures
}

/// Host nanoseconds per GSM sample, WiFi scan and GPS fix, from feeding
/// `positions` back into the radio model.
pub fn radio_probe(world: &World, positions: &[(GeoPoint, SimTime)], seed: u64) -> [f64; 3] {
    let env = RadioEnvironment::new(world, RadioConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let n = positions.len().max(1) as f64;
    let time = |f: &mut dyn FnMut()| {
        let start = std::time::Instant::now();
        f();
        start.elapsed().as_nanos() as f64 / n
    };
    let mut scratch = GsmScratch::default();
    let mut serving = None;
    let gsm = time(&mut || {
        for &(p, t) in positions {
            if let Some((obs, tower)) = env.observe_gsm_with(&mut scratch, p, t, serving, &mut rng)
            {
                serving = Some(tower);
                std::hint::black_box(obs);
            }
        }
    });
    let mut wifi_scratch = WifiScratch::default();
    let mut scan = WifiScan {
        time: SimTime::EPOCH,
        readings: Vec::new(),
    };
    let wifi = time(&mut || {
        for &(p, t) in positions {
            env.scan_wifi_with(&mut wifi_scratch, &mut scan, p, t, &mut rng);
            std::hint::black_box(&scan);
        }
    });
    let gps = time(&mut || {
        for &(p, t) in positions {
            std::hint::black_box(env.fix_gps(p, t, &mut rng));
        }
    });
    [gsm, wifi, gps]
}
