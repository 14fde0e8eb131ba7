//! Golden plan order: every figure's `CampaignPlan`, at every scale, lists
//! the same scenarios in the same order as when these constants were
//! recorded. The executor hands jobs to workers in plan order, so the
//! schedule of a parallel campaign (and of the `perfbench` workloads built on
//! fig13 and fig19) depends on it; a change to how a figure names its
//! scenarios must not reorder them silently.

use loco::campaign::CampaignPlan;
use loco_bench::{figure_spec, figure_specs, Scale, FIGURE_NUMBERS};

/// FNV-1a over the scenario labels in plan order, each label terminated by
/// a `0xff` byte (never valid UTF-8, so labels cannot run into each other).
fn fold(plan: &CampaignPlan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in plan.scenarios() {
        for b in s.label().bytes().chain([0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn figure_plan(scale: Scale, number: u32) -> CampaignPlan {
    let mut plan = CampaignPlan::new();
    let spec = figure_spec(scale, number, None).expect("known figure");
    plan.add_figure(&spec, &scale.params());
    plan
}

/// `(figure number, scenario count, fold)` of one figure's plan.
type Golden = (u32, usize, u64);

/// One row per figure 6–19, per scale.
const GOLDEN: [(Scale, [Golden; 14]); 3] = [
    (
        Scale::Quick,
        [
            (6, 6, 0x6b48_6a70_f0ee_f11f),
            (7, 9, 0x97a6_8c78_e8b7_330a),
            (8, 6, 0xf89e_c2dd_74a2_4aec),
            (9, 6, 0xd32c_4e67_e60b_cc9e),
            (10, 9, 0xabfc_7a35_1c02_f161),
            (11, 12, 0x2faa_5b5d_8140_b52f),
            (12, 12, 0x247d_cc68_1a19_8df9),
            (13, 12, 0x86c0_fbd7_ae5b_38bf),
            (14, 15, 0x4f83_ba16_aa7c_dde8),
            (15, 6, 0xe080_d463_682b_9a34),
            (16, 8, 0xfc92_8cf9_cadb_2125),
            (17, 15, 0xe7ba_fa91_8816_33f7),
            (18, 12, 0x0429_9396_e975_360e),
            (19, 6, 0xc52b_8486_e8b8_87d7),
        ],
    ),
    (
        Scale::Cores64,
        [
            (6, 16, 0x8881_5015_0989_dd1b),
            (7, 24, 0xa263_b1d2_851a_573c),
            (8, 16, 0xb562_6f5a_2cac_1e2f),
            (9, 16, 0x7c28_d038_473f_c655),
            (10, 24, 0x6afa_b8d5_a61c_6a38),
            (11, 32, 0x0721_fb12_9a16_7523),
            (12, 32, 0x9578_4939_178e_3af3),
            (13, 32, 0xc519_b33c_8e5c_3655),
            (14, 40, 0xd323_381b_fb0e_a0b8),
            (15, 30, 0x544b_029a_3ea9_8b08),
            (16, 44, 0x050a_f2c9_f396_700d),
            (17, 40, 0xfbea_c618_5c71_5c42),
            (18, 32, 0x415a_7dd6_32e3_7bd7),
            (19, 6, 0xc52b_8486_e8b8_87d7),
        ],
    ),
    (
        Scale::Cores256,
        [
            (6, 16, 0x8881_5015_0989_dd1b),
            (7, 24, 0xa263_b1d2_851a_573c),
            (8, 16, 0xb562_6f5a_2cac_1e2f),
            (9, 16, 0x7c28_d038_473f_c655),
            (10, 24, 0x6afa_b8d5_a61c_6a38),
            (11, 32, 0x0721_fb12_9a16_7523),
            (12, 32, 0x9578_4939_178e_3af3),
            (13, 32, 0xc519_b33c_8e5c_3655),
            (14, 40, 0xd323_381b_fb0e_a0b8),
            (15, 30, 0x544b_029a_3ea9_8b08),
            (16, 44, 0x050a_f2c9_f396_700d),
            (17, 40, 0xfbea_c618_5c71_5c42),
            (18, 32, 0x415a_7dd6_32e3_7bd7),
            (19, 6, 0xc52b_8486_e8b8_87d7),
        ],
    ),
];

/// The composed all-figures quick plan (what `reproduce --params quick
/// --figures all` executes).
const GOLDEN_ALL_QUICK: (usize, u64) = (47, 0xff3f_2a4e_bdd5_41af);

#[test]
fn every_figure_plans_its_scenarios_in_the_recorded_order() {
    let mut mismatches = Vec::new();
    for (scale, rows) in GOLDEN {
        for (n, (number, len, hash)) in FIGURE_NUMBERS.zip(rows) {
            let plan = figure_plan(scale, n);
            let got = (n, plan.len(), fold(&plan));
            if got != (number, len, hash) {
                mismatches.push(format!("{scale:?}: got ({}, {}, {:#018x})", got.0, got.1, got.2));
            }
        }
    }
    assert!(mismatches.is_empty(), "plan order moved:\n{}", mismatches.join("\n"));
}

#[test]
fn the_composed_quick_plan_keeps_its_order() {
    let all: Vec<u32> = FIGURE_NUMBERS.collect();
    let params = Scale::Quick.params();
    let mut plan = CampaignPlan::new();
    for spec in figure_specs(Scale::Quick, &all, None) {
        plan.add_figure(&spec, &params);
    }
    assert_eq!((plan.len(), fold(&plan)), GOLDEN_ALL_QUICK, "got {:#018x}", fold(&plan));
}
