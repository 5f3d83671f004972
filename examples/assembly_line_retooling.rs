//! Domain example: the paper's assembly-line motivation (§1).
//!
//! ```text
//! cargo run --release --example assembly_line_retooling
//! ```
//!
//! "With re-programmable WSAC, the assembly line stations can adapt to a
//! schedule where every 3 Camrys are interleaved with 2 Prius' with
//! synchronized changes in operation modes." Each station is a nano-RK
//! kernel; the retool is a gated task-set change, and the fixed-priority
//! executor proves no Camry operation misses its deadline through the
//! switch.

use evm::rtos::{Executor, Kernel, TaskImage, TaskSpec};
use evm::sim::{SimDuration, SimTime};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn station(name: &str) -> Kernel {
    let mut k = Kernel::new(name);
    k.admit(
        TaskSpec::new("camry-weld", ms(30), ms(100)),
        TaskImage::typical_control_task(),
        None,
    )
    .expect("base mode fits");
    k.admit(
        TaskSpec::new("camry-inspect", ms(10), ms(200)),
        TaskImage::typical_control_task(),
        None,
    )
    .expect("base mode fits");
    k
}

fn main() {
    let mut stations: Vec<Kernel> = (1..=3).map(|i| station(&format!("station-{i}"))).collect();

    println!("camry-only mode:");
    for s in &stations {
        println!(
            "  {:<10} util {:.2}  schedulable: {}",
            s.name(),
            s.utilization(),
            s.verdict().schedulable
        );
    }

    // The retool: interleave Prius operations at every station, gated by
    // each kernel's schedulability test.
    println!("\nretooling to 3 Camry : 2 Prius...");
    for s in &mut stations {
        s.admit(
            TaskSpec::new("prius-battery", ms(40), ms(250)),
            TaskImage::typical_control_task(),
            None,
        )
        .expect("retool must pass the gate");
    }
    for s in &stations {
        println!(
            "  {:<10} util {:.2}  schedulable: {}",
            s.name(),
            s.utilization(),
            s.verdict().schedulable
        );
    }

    // Prove the mixed mode holds its deadlines over 2 s of line time.
    let set = stations[0].active_set();
    let log = Executor::new(SimTime::from_secs(2)).run(&set);
    println!(
        "\nsimulated mixed mode on {}: {} completions, {} deadline misses",
        stations[0].name(),
        (0..set.len()).map(|t| log.completions(t)).sum::<usize>(),
        log.misses.len()
    );
    assert!(log.misses.is_empty());

    // And show the gate refusing an unsafe retool: 120 ms every 200 ms
    // (U = 0.60) would lift the station to U = 1.11, past any schedule.
    let err = stations[0].admit(
        TaskSpec::new("prius-paint", ms(120), ms(200)),
        TaskImage::typical_control_task(),
        None,
    );
    println!(
        "\nunsafe retool (+60% util) refused: {}",
        err.expect_err("must be refused")
    );
    println!(
        "running mode untouched: util {:.2}",
        stations[0].utilization()
    );
}
