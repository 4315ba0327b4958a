//! The paper's central claim, end to end: designing for the future pays.
//!
//! Two copies of the same system receive the same sequence of application
//! increments — one mapped with the ad-hoc strategy (AH, blind to the
//! future), one with the mapping heuristic (MH, optimizing the C1/C2
//! metrics). After each increment we probe how many applications of the
//! expected future family still fit on each system.
//!
//! ```text
//! cargo run --release --example incremental_lifecycle
//! ```

use incdes::prelude::*;
use incdes::synth::paper::dac2001_small;
use incdes::synth::{generate_application, generate_architecture};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let preset = dac2001_small();
    let arch = generate_architecture(&preset.cfg)?;
    let mut future = incdes::synth::future_profile_for(&preset.cfg, preset.future_processes);
    // Press on the system: the expected future family is demanding. The
    // figure campaigns scale `t_need` and `b_need` the same way, by their
    // spec's `demand_factor` (4 for the paper figures).
    future.t_need = Time::new(future.t_need.ticks() * 8);
    future.b_need = Time::new(future.b_need.ticks() * 8);
    let weights = Weights::default();

    let mut ah_system = System::new(arch.clone());
    let mut mh_system = System::new(arch);

    println!("increment |  AH cost |  MH cost | future apps fit (AH) | future apps fit (MH)");
    println!("----------+----------+----------+----------------------+---------------------");

    let mut rng = ChaCha8Rng::seed_from_u64(99);
    for version in 1..=6 {
        let app = generate_application(&preset.cfg, &format!("v{version}"), 35, &mut rng)?;

        let ah_report =
            ah_system.add_application(app.clone(), &future, &weights, &Strategy::AdHoc)?;
        let mh_report = mh_system.add_application(app, &future, &weights, &Strategy::mh())?;

        // Probe ten draws from the future family on both systems.
        let (mut ah_fit, mut mh_fit) = (0, 0);
        for probe_seed in 0..10u64 {
            let mut prng = ChaCha8Rng::seed_from_u64(1000 + probe_seed);
            // Probe a demanding member of the family: twice the typical
            // future size.
            let fut = generate_application(
                &preset.cfg,
                "future",
                preset.future_processes * 2,
                &mut prng,
            )?;
            if ah_system
                .probe_application(&fut, &future, &weights, &Strategy::AdHoc)?
                .feasible
            {
                ah_fit += 1;
            }
            if mh_system
                .probe_application(&fut, &future, &weights, &Strategy::AdHoc)?
                .feasible
            {
                mh_fit += 1;
            }
        }
        println!(
            "       v{version} | {:>8.1} | {:>8.1} | {:>17}/10  | {:>17}/10",
            ah_report.cost.total, mh_report.cost.total, ah_fit, mh_fit
        );
    }

    println!();
    println!(
        "AH system: {} applications, hyperperiod {}",
        ah_system.app_count(),
        ah_system.horizon()
    );
    println!(
        "MH system: {} applications, hyperperiod {}",
        mh_system.app_count(),
        mh_system.horizon()
    );
    Ok(())
}
