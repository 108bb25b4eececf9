//! Measure the paper's headline claims.

fn main() {
    let exp = deep_bench::default_experiments();
    let h = exp.headline();
    println!("Headline claims, measured on the simulated testbed:\n");
    for ((app, joules), (_, frac)) in h.savings_vs_hub_j.iter().zip(&h.savings_vs_hub_frac) {
        println!(
            "  {app:18} DEEP saves {joules:8.1} J ({:.2} %) vs exclusively-Docker-Hub",
            frac * 100.0
        );
    }
    println!(
        "  text-processing    regional pull share: {:.0} % (paper: 83 %)",
        h.text_regional_share * 100.0
    );
    println!(
        "\npaper: video ~14 J (0.2 %), text ~18 J (0.34 %); deep-core's \
         headline_matches_paper_shape test checks the shape."
    );
}
