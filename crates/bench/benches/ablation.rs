//! Ablations of the design choices DESIGN.md calls out (not in the paper's
//! figures, but quantifying each optimisation's contribution):
//!
//! 1. IDA's Theorem-2 fast phase on/off,
//! 2. PUA Dijkstra reuse on/off (applies to NIA and IDA),
//! 3. IDA key mode: paper (stale α kept) vs. safe (per-iteration α),
//! 4. grouped incremental ANN (§3.4.2) group size sweep,
//! 5. buffer pool size sweep (the paper fixes 1%),
//! 6. RIA's θ sensitivity (§3.2 motivates NIA by θ being hard to tune).

use cca::core::exact::{ida, nia, ria, IdaConfig, IdaKeyMode, NiaConfig, RiaConfig, RtreeSource};
use cca::datagen::CapacitySpec;
use cca::geo::Point;
use cca::SolverConfig;
use cca_bench::{build_instance, default_config, header, measure, print_exact_table, Row, Scale};

fn main() {
    let scale = Scale::from_env();
    // k = 40 instead of the default 80: the no-PUA variants pay a full
    // Dijkstra per edge insertion (that cost being the point of the
    // ablation), which at k = 80 would dominate the whole bench run.
    let base = cca::datagen::WorkloadConfig {
        capacity: CapacitySpec::Fixed(40),
        ..default_config(scale)
    };
    header(
        "Ablation",
        "contribution of each optimisation",
        &format!(
            "|Q| = {}, |P| = {}, k = 40",
            base.num_providers, base.num_customers
        ),
    );
    let instance = build_instance(&base);
    let qpos: Vec<Point> = instance.providers().iter().map(|&(p, _)| p).collect();
    let providers = instance.providers().to_vec();

    let run_ida = |label: &str, cfg: IdaConfig| -> Row {
        instance.tree().store().clear_cache();
        instance.tree().store().reset_stats();
        let mut src = RtreeSource::new(instance.tree(), qpos.clone(), None);
        let t0 = std::time::Instant::now();
        let (m, stats) = ida(&providers, &mut src, &cfg);
        let cpu = t0.elapsed();
        m.validate_unit(instance.providers(), instance.customers())
            .expect("ablation variants must stay exact");
        Row {
            series: label.to_string(),
            x: "-".into(),
            cost: m.cost(),
            esub: stats.esub_edges,
            faults: instance.tree().io_stats().faults,
            cpu_s: cpu.as_secs_f64(),
            io_s: instance.tree().io_stats().charged_io_time_s(),
            wall_s: cpu.as_secs_f64(),
        }
    };

    println!("\n-- IDA variants ------------------------------------------------");
    let mut rows = vec![
        run_ida("ida(full)", IdaConfig::default()),
        run_ida(
            "ida-fast",
            IdaConfig {
                disable_fast_phase: true,
                ..Default::default()
            },
        ),
        run_ida(
            "ida-pua",
            IdaConfig {
                disable_pua: true,
                ..Default::default()
            },
        ),
        run_ida(
            "ida(safe)",
            IdaConfig {
                key_mode: IdaKeyMode::Safe,
                ..Default::default()
            },
        ),
    ];
    print_exact_table(&rows);

    println!("\n-- NIA with / without PUA --------------------------------------");
    rows.clear();
    for (label, use_pua) in [("nia(pua)", true), ("nia-pua", false)] {
        instance.tree().store().clear_cache();
        instance.tree().store().reset_stats();
        let mut src = RtreeSource::new(instance.tree(), qpos.clone(), None);
        let t0 = std::time::Instant::now();
        let (m, stats) = nia(&providers, &mut src, &NiaConfig { use_pua });
        let cpu = t0.elapsed();
        rows.push(Row {
            series: label.to_string(),
            x: "-".into(),
            cost: m.cost(),
            esub: stats.esub_edges,
            faults: instance.tree().io_stats().faults,
            cpu_s: cpu.as_secs_f64(),
            io_s: instance.tree().io_stats().charged_io_time_s(),
            wall_s: cpu.as_secs_f64(),
        });
    }
    print_exact_table(&rows);

    println!("\n-- grouped ANN (group size sweep; 1 = plain cursors) ------------");
    rows.clear();
    rows.push(measure(&instance, &SolverConfig::new("ida"), "g=1"));
    for g in [4usize, 8, 16, 32] {
        rows.push(measure(
            &instance,
            &SolverConfig::new("ida-grouped").group_size(g),
            format!("g={g}"),
        ));
    }
    print_exact_table(&rows);

    println!("\n-- buffer size sweep (pages; paper fixes 1% of the tree) --------");
    rows.clear();
    for pages in [4usize, 16, 64, 256] {
        instance.tree().store().set_buffer_capacity(pages);
        rows.push(measure(
            &instance,
            &SolverConfig::new("ida"),
            format!("{pages}p"),
        ));
    }
    print_exact_table(&rows);
    // Restore the experiment setting.
    instance
        .tree()
        .store()
        .set_buffer_capacity(cca_bench::BUFFER_FLOOR_PAGES);

    println!("\n-- RIA θ sensitivity (§3.2: θ is hard to fine-tune) --------------");
    rows.clear();
    for factor in [0.25, 1.0, 4.0] {
        let theta = scale.tuned_theta() * factor;
        instance.tree().store().clear_cache();
        instance.tree().store().reset_stats();
        let mut src = RtreeSource::new(instance.tree(), qpos.clone(), None);
        let t0 = std::time::Instant::now();
        let (m, stats) = ria(&providers, &mut src, &RiaConfig { theta });
        let cpu = t0.elapsed();
        rows.push(Row {
            series: format!("θ={theta:.1}"),
            x: "-".into(),
            cost: m.cost(),
            esub: stats.esub_edges,
            faults: instance.tree().io_stats().faults,
            cpu_s: cpu.as_secs_f64(),
            io_s: instance.tree().io_stats().charged_io_time_s(),
            wall_s: cpu.as_secs_f64(),
        });
    }
    print_exact_table(&rows);
}
