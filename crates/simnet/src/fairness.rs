//! Max-min fair bandwidth allocation (progressive filling).
//!
//! Given a set of flows, each crossing a set of capacitated resources, the
//! allocator computes the max-min fair rate vector: rates are raised together
//! until some resource saturates; flows crossing that resource are frozen at
//! the bottleneck's fair share; the process repeats on the residual problem.
//!
//! This is the classic fluid approximation of TCP-fair sharing used by
//! flow-level simulators; it captures exactly the effects the paper's
//! scheduler must learn — shared WAN bottlenecks, asymmetric per-node
//! bandwidth, and contention from background traffic.

use crate::topology::Resource;
use std::collections::BTreeMap;

/// One flow's demand as seen by the allocator.
#[derive(Debug, Clone)]
pub(crate) struct FlowDemand {
    /// Resources this flow traverses.
    pub resources: Vec<Resource>,
    /// Optional cap on the flow's rate (bytes/sec), e.g. an application-level
    /// throttle. `f64::INFINITY` means uncapped.
    pub(crate) rate_cap: f64,
}

/// Compute max-min fair rates.
///
/// * `demands` — one entry per active flow.
/// * `capacity_of` — resource capacities in bytes/sec.
///
/// Returns a vector of rates aligned with `demands` by position. Flows with an empty resource list (loopback transfers) receive
/// their rate cap, or a very large rate if uncapped.
#[expect(
    clippy::expect_used,
    reason = "the crossing map is seeded with every resource before the water-filling loop"
)]
pub(crate) fn max_min_fair_rates<F>(demands: &[FlowDemand], capacity_of: F) -> Vec<f64>
where
    F: Fn(Resource) -> f64,
{
    const LOOPBACK_RATE: f64 = 1e12; // 1 TB/s: effectively instantaneous
    let n = demands.len();
    let mut rates = vec![0.0f64; n];
    if n == 0 {
        return rates;
    }

    // Collect the resources actually in use and their remaining capacity.
    let mut remaining: BTreeMap<Resource, f64> = BTreeMap::new();
    for d in demands {
        for &r in &d.resources {
            remaining
                .entry(r)
                .or_insert_with(|| capacity_of(r).max(0.0));
        }
    }

    // Number of unfrozen flows crossing each resource.
    let mut crossing: BTreeMap<Resource, usize> = BTreeMap::new();
    for d in demands {
        for &r in &d.resources {
            *crossing.entry(r).or_insert(0) += 1;
        }
    }

    let mut frozen = vec![false; n];
    let mut unfrozen_count = n;

    // Loopback / capped-at-zero flows resolve immediately.
    for (i, d) in demands.iter().enumerate() {
        if d.resources.is_empty() {
            rates[i] = d.rate_cap.min(LOOPBACK_RATE);
            frozen[i] = true;
            unfrozen_count -= 1;
        } else if d.rate_cap <= 0.0 {
            rates[i] = 0.0;
            frozen[i] = true;
            unfrozen_count -= 1;
            for &r in &d.resources {
                *crossing.get_mut(&r).expect("resource present") -= 1;
            }
        }
    }

    // Progressive filling. Each iteration freezes at least one flow, so the
    // loop runs at most `n` times.
    while unfrozen_count > 0 {
        // Fair share offered by each still-constraining resource.
        let mut bottleneck: Option<(f64, Resource)> = None;
        for (&r, &cap) in &remaining {
            let users = crossing.get(&r).copied().unwrap_or(0);
            if users == 0 {
                continue;
            }
            let share = cap / users as f64;
            let better = match bottleneck {
                None => true,
                Some((best, _)) => share < best,
            };
            if better {
                bottleneck = Some((share, r));
            }
        }

        // The tightest *cap* among unfrozen flows may bind before any resource.
        let mut cap_bound: Option<(f64, usize)> = None;
        for (i, d) in demands.iter().enumerate() {
            if frozen[i] || !d.rate_cap.is_finite() {
                continue;
            }
            if cap_bound.map(|(c, _)| d.rate_cap < c).unwrap_or(true) {
                cap_bound = Some((d.rate_cap, i));
            }
        }

        match (bottleneck, cap_bound) {
            (None, None) => {
                // No constraining resource and no finite caps: give the
                // loopback rate to everything left.
                for (i, _) in demands.iter().enumerate() {
                    if !frozen[i] {
                        rates[i] = LOOPBACK_RATE;
                        frozen[i] = true;
                        unfrozen_count -= 1;
                    }
                }
            }
            (Some((share, res)), cap) if cap.map(|(c, _)| share <= c).unwrap_or(true) => {
                // Resource `res` is the bottleneck: freeze every unfrozen flow
                // crossing it at `share`.
                let mut froze_any = false;
                for (i, d) in demands.iter().enumerate() {
                    if frozen[i] || !d.resources.contains(&res) {
                        continue;
                    }
                    let rate = share.min(d.rate_cap);
                    rates[i] = rate;
                    frozen[i] = true;
                    unfrozen_count -= 1;
                    froze_any = true;
                    // Release this flow's consumption from every resource it crosses.
                    for &r in &d.resources {
                        if let Some(c) = remaining.get_mut(&r) {
                            *c = (*c - rate).max(0.0);
                        }
                        if let Some(u) = crossing.get_mut(&r) {
                            *u -= 1;
                        }
                    }
                }
                debug_assert!(froze_any, "bottleneck must freeze at least one flow");
            }
            (_, Some((cap_rate, idx))) => {
                // The smallest rate cap binds first: freeze that single flow.
                let d = &demands[idx];
                rates[idx] = cap_rate;
                frozen[idx] = true;
                unfrozen_count -= 1;
                for &r in &d.resources {
                    if let Some(c) = remaining.get_mut(&r) {
                        *c = (*c - cap_rate).max(0.0);
                    }
                    if let Some(u) = crossing.get_mut(&r) {
                        *u -= 1;
                    }
                }
            }
            (Some(_), None) => {
                // Covered by the guarded arm above (the guard is always true
                // when there is no cap bound); kept only for exhaustiveness.
                unreachable!("guarded arm handles the no-cap case")
            }
        }
    }

    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LinkId, NodeId};

    fn demand(resources: Vec<Resource>) -> FlowDemand {
        FlowDemand {
            resources,
            rate_cap: f64::INFINITY,
        }
    }

    const LINK: Resource = Resource::LinkDir(LinkId(0), true);
    const LINK2: Resource = Resource::LinkDir(LinkId(1), true);

    #[test]
    fn single_flow_gets_full_capacity() {
        let rates = max_min_fair_rates(&[demand(vec![LINK])], |_| 100.0);
        assert_eq!(rates, vec![100.0]);
    }

    #[test]
    fn equal_flows_split_evenly() {
        let demands = vec![
            demand(vec![LINK]),
            demand(vec![LINK]),
            demand(vec![LINK]),
            demand(vec![LINK]),
        ];
        let rates = max_min_fair_rates(&demands, |_| 100.0);
        for r in rates {
            assert!((r - 25.0).abs() < 1e-9);
        }
    }

    #[test]
    fn classic_max_min_example() {
        // Flow A crosses links 1 and 2; flow B crosses link 1; flow C crosses link 2.
        // Capacities: link1 = 10, link2 = 20.
        // Max-min: A and B share link1 -> 5 each; C gets 20 - 5 = 15 on link2.
        let demands = vec![
            demand(vec![LINK, LINK2]),
            demand(vec![LINK]),
            demand(vec![LINK2]),
        ];
        let rates = max_min_fair_rates(&demands, |r| match r {
            Resource::LinkDir(LinkId(0), _) => 10.0,
            Resource::LinkDir(LinkId(1), _) => 20.0,
            _ => f64::INFINITY,
        });
        assert!((rates[0] - 5.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 5.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[2] - 15.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn rate_caps_bind_and_release_capacity() {
        // Two flows share a 100-unit link, one capped at 10: the other gets 90.
        let demands = vec![
            FlowDemand {
                resources: vec![LINK],
                rate_cap: 10.0,
            },
            demand(vec![LINK]),
        ];
        let rates = max_min_fair_rates(&demands, |_| 100.0);
        assert!((rates[0] - 10.0).abs() < 1e-9);
        assert!((rates[1] - 90.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cap_flow_is_ignored_for_sharing() {
        let demands = vec![
            FlowDemand {
                resources: vec![LINK],
                rate_cap: 0.0,
            },
            demand(vec![LINK]),
        ];
        let rates = max_min_fair_rates(&demands, |_| 80.0);
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 80.0).abs() < 1e-9);
    }

    #[test]
    fn loopback_flows_get_huge_rate() {
        let rates = max_min_fair_rates(&[demand(vec![])], |_| 100.0);
        assert!(rates[0] >= 1e11);
    }

    #[test]
    fn empty_input_is_empty_output() {
        let rates = max_min_fair_rates(&[], |_| 1.0);
        assert!(rates.is_empty());
    }

    #[test]
    fn different_nics_do_not_interfere() {
        let e0 = Resource::NodeEgress(NodeId(0));
        let e1 = Resource::NodeEgress(NodeId(1));
        let demands = vec![demand(vec![e0]), demand(vec![e1])];
        let rates = max_min_fair_rates(&demands, |_| 100.0);
        assert_eq!(rates, vec![100.0, 100.0]);
    }

    /// Invariant checks used by both unit tests and proptests below.
    fn check_invariants(demands: &[FlowDemand], rates: &[f64], cap: f64) {
        // Non-negative, respect caps.
        for (d, &r) in demands.iter().zip(rates) {
            assert!(r >= 0.0);
            assert!(r <= d.rate_cap + 1e-6);
        }
        // No resource oversubscribed.
        let mut usage: BTreeMap<Resource, f64> = BTreeMap::new();
        for (d, &r) in demands.iter().zip(rates) {
            for &res in &d.resources {
                *usage.entry(res).or_insert(0.0) += r;
            }
        }
        for (_, total) in usage {
            assert!(
                total <= cap * (1.0 + 1e-9),
                "resource oversubscribed: {total} > {cap}"
            );
        }
    }

    #[test]
    fn invariants_on_mixed_topology() {
        let demands = vec![
            demand(vec![LINK, Resource::NodeEgress(NodeId(0))]),
            demand(vec![LINK, Resource::NodeEgress(NodeId(1))]),
            demand(vec![LINK2, Resource::NodeEgress(NodeId(0))]),
            FlowDemand {
                resources: vec![LINK2],
                rate_cap: 7.0,
            },
        ];
        let rates = max_min_fair_rates(&demands, |_| 50.0);
        check_invariants(&demands, &rates, 50.0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_resources() -> impl Strategy<Value = Vec<Resource>> {
            // Pool of 6 possible resources; each flow picks a non-empty subset.
            prop::collection::vec(0usize..6, 1..4).prop_map(|idxs| {
                let mut v: Vec<Resource> = idxs
                    .into_iter()
                    .map(|i| match i {
                        0 => Resource::LinkDir(LinkId(0), true),
                        1 => Resource::LinkDir(LinkId(0), false),
                        2 => Resource::LinkDir(LinkId(1), true),
                        3 => Resource::NodeEgress(NodeId(0)),
                        4 => Resource::NodeEgress(NodeId(1)),
                        _ => Resource::NodeIngress(NodeId(2)),
                    })
                    .collect();
                v.sort();
                v.dedup();
                v
            })
        }

        proptest! {
            #[test]
            fn rates_never_violate_capacity(
                resource_sets in prop::collection::vec(arb_resources(), 1..12),
                cap in 1.0f64..1000.0,
            ) {
                let demands: Vec<FlowDemand> = resource_sets
                    .into_iter()
                    .map(|resources| FlowDemand { resources, rate_cap: f64::INFINITY })
                    .collect();
                let rates = max_min_fair_rates(&demands, |_| cap);
                check_invariants(&demands, &rates, cap);
                // Work conservation: every flow with resources gets a strictly
                // positive rate (no starvation under max-min fairness).
                for (d, &r) in demands.iter().zip(&rates) {
                    if !d.resources.is_empty() {
                        prop_assert!(r > 0.0, "flow starved: {:?}", d);
                    }
                }
            }

            #[test]
            fn single_bottleneck_shares_sum_to_capacity(
                n in 1usize..20,
                cap in 1.0f64..1000.0,
            ) {
                let demands: Vec<FlowDemand> = (0..n)
                    .map(|_| FlowDemand {
                        resources: vec![Resource::LinkDir(LinkId(0), true)],
                        rate_cap: f64::INFINITY,
                    })
                    .collect();
                let rates = max_min_fair_rates(&demands, |_| cap);
                let total: f64 = rates.iter().sum();
                prop_assert!((total - cap).abs() < 1e-6 * cap.max(1.0));
                // And all shares equal.
                for &r in &rates {
                    prop_assert!((r - cap / n as f64).abs() < 1e-6 * cap.max(1.0));
                }
            }
        }
    }
}
