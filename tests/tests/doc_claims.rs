//! Numbers quoted in the prose docs, pinned to the committed results they
//! quote: regenerating `results/` with different numbers fails here until
//! the docs are updated too.

fn read(path_from_root: &str) -> String {
    let path = format!("{}/../{path_from_root}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The F0.5, precision and recall cells of Table 2's best row.
fn best_table2_row() -> (String, String, String) {
    let table = read("results/table2_best_configuration.txt");
    let rows: Vec<Vec<String>> = table
        .lines()
        .filter(|l| l.starts_with("| setting"))
        .map(|l| l.split('|').map(|c| c.trim().to_string()).filter(|c| !c.is_empty()).collect())
        .collect();
    assert!(!rows.is_empty(), "Table 2 has no setting rows");
    // Columns: setting, PH, F0.5, F1, precision, recall.
    let best = rows
        .into_iter()
        .max_by(|a, b| {
            let f05 = |r: &Vec<String>| r.get(2).and_then(|c| c.parse::<f64>().ok());
            f05(a).partial_cmp(&f05(b)).unwrap_or(std::cmp::Ordering::Equal)
        })
        .unwrap_or_default();
    let cell = |i: usize| best.get(i).cloned().unwrap_or_default();
    (cell(2), cell(4), cell(5))
}

#[test]
fn design_quotes_the_committed_best_configuration() {
    let (f05, precision, recall) = best_table2_row();
    let claim = format!("best F0.5 ≈ {f05} (precision {precision}, recall {recall})");
    assert!(
        read("DESIGN.md").contains(&claim),
        "DESIGN.md must quote Table 2's best row as `{claim}`"
    );
}
