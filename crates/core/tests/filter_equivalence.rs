//! The streaming filter forms agree with the batch mask on simulated fleet
//! telemetry: for every record of every vehicle, `FilterSpec::keep_row`,
//! the bound `BoundFilter::keep` and `FilterSpec::mask` give one answer.
//! (Random rows with NaN, out-of-range cells, permuted, missing and short
//! layouts are covered next to the filter in `navarchos-tsframe`.)

use navarchos_fleetsim::FleetConfig;
use navarchos_tsframe::FilterSpec;

#[test]
fn keep_row_bound_keep_and_mask_agree_on_fleet_rows() {
    let fleet = FleetConfig::small(7).generate();
    let mut warm = FilterSpec::navarchos_default();
    warm.warm_column = None;
    for spec in [FilterSpec::navarchos_default(), warm, FilterSpec::default()] {
        let (mut kept, mut dropped) = (0usize, 0usize);
        for vd in &fleet.vehicles {
            let frame = &vd.frame;
            let names = frame.names().to_vec();
            let bound = spec.bind(&names);
            let mask = spec.mask(frame);
            let mut row = Vec::new();
            for (i, &keep) in mask.iter().enumerate() {
                frame.row_into(i, &mut row);
                assert_eq!(spec.keep_row(&names, &row), keep, "vehicle {:?} row {i}", vd.id);
                assert_eq!(bound.keep(&row), keep, "vehicle {:?} row {i}", vd.id);
                if keep {
                    kept += 1;
                } else {
                    dropped += 1;
                }
            }
        }
        assert!(kept > 0, "some records survive {spec:?}");
        if spec.warm_column.is_some() {
            assert!(dropped > 0, "the paper filter drops records");
        }
    }
}
