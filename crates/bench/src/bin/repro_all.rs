//! Run every table/figure regeneration in sequence.

fn main() {
    let exp = deep_bench::experiments_from_args();
    println!("=== Table I ===\n{}", exp.table1());
    let t2 = exp.table2();
    println!("=== Table II ===\n{}", exp.render_table2(&t2));
    println!("=== Table III ===\n{}", exp.render_table3(&exp.table3()));
    println!("=== Figure 2 (DOT) ===\n{}", exp.fig2());
    println!("=== Figure 3a ===\n{}", exp.render_fig3a(&exp.fig3a()));
    println!("=== Figure 3b ===\n{}", exp.render_fig3b(&exp.fig3b()));
    let h = exp.headline();
    println!("=== Headline ===");
    for ((app, joules), (_, frac)) in h.savings_vs_hub_j.iter().zip(&h.savings_vs_hub_frac) {
        println!(
            "{app}: DEEP saves {joules:.1} J ({:.2} %) vs exclusively-Docker-Hub",
            frac * 100.0
        );
    }
    println!("text regional share: {:.0} %", h.text_regional_share * 100.0);
}
