//! Table 3: logic decomposition for mux latches on the sequential benchmark
//! family, for the delay-oriented (sum of squared BDD sizes) and the
//! area-oriented (sum of BDD sizes) cost functions.
//!
//! For every circuit the baseline is the collapsed original next-state /
//! output logic, technology mapped; the decomposed variant replaces each
//! next-state function by the three mux-input functions synthesized with
//! BREL (the mux itself being absorbed by the flip-flop, as the paper
//! assumes).

use brel_benchdata::iscas_like as family;
use brel_engine::Json;
use brel_network::decompose::decompose_mux_latches;
use brel_network::mapper::{map, MappingOptions};
use brel_network::speedup::collapse;
use brel_network::Library;

use crate::{timed, Report};

/// Runs the flow over the first `num_instances` circuits under both cost
/// functions, delay-oriented first, at the given per-relation exploration
/// budget, and reports each run in the layout of the paper's Table 3,
/// followed by a blank line. Its ledger rows hold every column but CPU,
/// each tagged with its cost; the summary holds each run's decomposed over
/// baseline ratios of the total area and delay.
pub fn run(num_instances: usize, max_explored: usize) -> Report {
    let library = Library::lib2_like();
    let options = MappingOptions::default();
    let circuits: Vec<_> = family::instances()
        .into_iter()
        .take(num_instances)
        .map(|instance| {
            let net = family::generate(&instance);
            let baseline_net = collapse(&net).expect("generated circuits are acyclic");
            let baseline = map(&baseline_net, &library, &options).expect("acyclic");
            (instance, net, baseline)
        })
        .collect();
    let mut report = Report::default();
    for delay_oriented in [true, false] {
        let (cost, title, keys) = if delay_oriented {
            let keys = ["delay_cost_area_ratio", "delay_cost_delay_ratio"];
            ("delay", "delay-oriented, sum of squared BDD sizes", keys)
        } else {
            let keys = ["area_cost_area_ratio", "area_cost_delay_ratio"];
            ("area", "area-oriented, sum of BDD sizes", keys)
        };
        report.text.push_str(&format!(
            "Table 3 ({title} cost): logic decomposition for mux latches\n\
             name     PI PO FF |   base area  base delay |   mux area   mux delay |   CPU[s]\n"
        ));
        let (mut ba, mut da, mut bd, mut dd) = (0.0, 0.0, 0.0, 0.0);
        for (instance, net, baseline) in &circuits {
            let (mapped, cpu) = timed(|| {
                let decomposed =
                    decompose_mux_latches(net, delay_oriented, max_explored).expect("solvable");
                map(&decomposed.network, &library, &options).expect("acyclic")
            });
            report.text.push_str(&format!(
                "{:8} {:2} {:2} {:2} | {:10.1} {:11.2} | {:10.1} {:11.2} | {:8.3}\n",
                instance.name,
                instance.num_inputs,
                instance.num_outputs,
                instance.num_flip_flops,
                baseline.area,
                baseline.delay,
                mapped.area,
                mapped.delay,
                cpu.as_secs_f64(),
            ));
            report.rows.push(Json::object(vec![
                ("cost", Json::str(cost)),
                ("name", Json::str(instance.name)),
                ("inputs", Json::UInt(instance.num_inputs as u64)),
                ("outputs", Json::UInt(instance.num_outputs as u64)),
                ("flip_flops", Json::UInt(instance.num_flip_flops as u64)),
                ("baseline_area", Json::Float(baseline.area)),
                ("baseline_delay", Json::Float(baseline.delay)),
                ("decomposed_area", Json::Float(mapped.area)),
                ("decomposed_delay", Json::Float(mapped.delay)),
            ]));
            ba += baseline.area;
            da += mapped.area;
            bd += baseline.delay;
            dd += mapped.delay;
        }
        let area_ratio = if ba > 0.0 { da / ba } else { 1.0 };
        let delay_ratio = if bd > 0.0 { dd / bd } else { 1.0 };
        report.text.push_str(&format!(
            "TOTAL                 | {ba:10.1} {bd:11.2} | {da:10.1} {dd:11.2} |  area x{area_ratio:.3}, delay x{delay_ratio:.3}\n\n"
        ));
        report.summary.push((keys[0], Json::Float(area_ratio)));
        report.summary.push((keys[1], Json::Float(delay_ratio)));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{num, text};

    #[test]
    fn small_run_produces_plausible_rows() {
        let rows = run(2, 20).rows;
        assert_eq!(rows.len(), 4, "two circuits under each cost");
        for r in &rows {
            assert!(num(r, "baseline_area") > 0.0);
            assert!(num(r, "decomposed_area") > 0.0);
            assert!(num(r, "baseline_delay") > 0.0);
            assert!(num(r, "decomposed_delay") > 0.0);
        }
    }

    #[test]
    fn delay_cost_tends_to_reduce_delay_relative_to_area_cost() {
        // Shape expectation: with the delay-oriented cost the decomposed
        // delay total is not worse than with the area-oriented cost (both
        // runs share one baseline, so their delay ratios compare the
        // decomposed totals).
        let summary = Json::object(run(2, 20).summary);
        let delay_cost_delay = num(&summary, "delay_cost_delay_ratio");
        let area_cost_delay = num(&summary, "area_cost_delay_ratio");
        assert!(delay_cost_delay <= area_cost_delay * 1.25);
    }

    #[test]
    fn text_has_a_total_row_per_cost() {
        let report = run(1, 10);
        assert_eq!(report.text.matches("TOTAL").count(), 2);
        assert!(report.text.contains(text(&report.rows[0], "name")));
    }
}
