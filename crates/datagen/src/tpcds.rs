//! `tpcds-lite`: the TPC-DS tables the paper's QX/QY/QZ queries touch.
//!
//! Only the join-relevant attributes are generated (the queries are
//! `SELECT *` over key joins; payload columns would be dead weight). The
//! generator preserves what drives the measured behaviour:
//!
//! * the PK/FK structure (every `_sk` reference hits an existing dimension
//!   row) — this is what the `_opt` variants exploit;
//! * the many-to-many pairings through `hd_income_band_sk` (QY/QZ) and
//!   `i_category_id` (QZ) that make those joins explode;
//! * Zipf-skewed fact foreign keys (popular customers/items), the trigger
//!   for repeated count doublings.
//!
//! Cardinalities scale linearly with `sf`, calibrated so `sf = 1` runs in
//! milliseconds and `sf = 30` still fits a laptop benchmark budget.

use crate::graph::Zipf;
use rsj_common::rng::RsjRng;
use rsj_common::Value;

/// One generated TPC-DS-lite instance.
#[derive(Clone, Debug)]
pub struct TpcdsLite {
    /// `(d_date_sk,)`
    pub date_dim: Vec<[Value; 1]>,
    /// `(hd_demo_sk, hd_income_band_sk)`
    pub household_demographics: Vec<[Value; 2]>,
    /// `(i_item_sk, i_category_id)`
    pub item: Vec<[Value; 2]>,
    /// `(c_customer_sk, c_current_hdemo_sk)`
    pub customer: Vec<[Value; 2]>,
    /// `(ss_item_sk, ss_ticket_number, ss_customer_sk, ss_sold_date_sk)`
    pub store_sales: Vec<[Value; 4]>,
    /// `(sr_item_sk, sr_ticket_number, sr_customer_sk)`
    pub store_returns: Vec<[Value; 3]>,
    /// `(cs_bill_customer_sk, cs_sold_date_sk)`
    pub catalog_sales: Vec<[Value; 2]>,
}

impl TpcdsLite {
    /// Generates an instance at scale factor `sf` (≥ 1).
    pub fn generate(sf: usize, seed: u64) -> TpcdsLite {
        assert!(sf >= 1);
        let mut rng = RsjRng::seed_from_u64(seed);
        let n_dates = 365;
        let n_income_bands = 20;
        let n_hd = 720;
        let n_items = 200 * sf;
        let n_customers = 500 * sf;
        let n_sales = 3000 * sf;
        let n_catalog = 1500 * sf;

        let date_dim: Vec<[Value; 1]> = (0..n_dates).map(|i| [i as Value]).collect();
        let household_demographics: Vec<[Value; 2]> = (0..n_hd)
            .map(|i| [i as Value, (i % n_income_bands) as Value])
            .collect();
        // Item categories Zipf-skewed: a few huge categories dominate the
        // QZ self-pairing.
        let cat_zipf = Zipf::new(10, 1.0);
        let item: Vec<[Value; 2]> = (0..n_items)
            .map(|i| [i as Value, cat_zipf.sample(&mut rng) as Value])
            .collect();
        let customer: Vec<[Value; 2]> = (0..n_customers)
            .map(|i| [i as Value, rng.below_u64(n_hd as u64)])
            .collect();

        let cust_zipf = Zipf::new(n_customers, 0.9);
        let item_zipf = Zipf::new(n_items, 0.9);
        let mut store_sales = Vec::with_capacity(n_sales);
        for ticket in 0..n_sales {
            store_sales.push([
                item_zipf.sample(&mut rng) as Value,
                ticket as Value,
                cust_zipf.sample(&mut rng) as Value,
                rng.below_u64(n_dates as u64),
            ]);
        }
        // ~10% of sales are returned; returns reference the sale's keys.
        let mut store_returns = Vec::new();
        for s in &store_sales {
            if rng.unit() < 0.1 {
                store_returns.push([s[0], s[1], s[2]]);
            }
        }
        let catalog_sales: Vec<[Value; 2]> = (0..n_catalog)
            .map(|_| {
                [
                    cust_zipf.sample(&mut rng) as Value,
                    rng.below_u64(n_dates as u64),
                ]
            })
            .collect();

        TpcdsLite {
            date_dim,
            household_demographics,
            item,
            customer,
            store_sales,
            store_returns,
            catalog_sales,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_common::FxHashSet;

    #[test]
    fn scale_factor_scales_facts() {
        let a = TpcdsLite::generate(1, 1);
        let b = TpcdsLite::generate(3, 1);
        assert!(b.store_sales.len() == 3 * a.store_sales.len());
        let facts =
            |d: &TpcdsLite| d.store_sales.len() + d.store_returns.len() + d.catalog_sales.len();
        assert!(facts(&b) > 2 * facts(&a));
    }

    #[test]
    fn foreign_keys_resolve() {
        let d = TpcdsLite::generate(2, 5);
        let items: FxHashSet<Value> = d.item.iter().map(|r| r[0]).collect();
        let custs: FxHashSet<Value> = d.customer.iter().map(|r| r[0]).collect();
        let dates: FxHashSet<Value> = d.date_dim.iter().map(|r| r[0]).collect();
        let hds: FxHashSet<Value> = d.household_demographics.iter().map(|r| r[0]).collect();
        for s in &d.store_sales {
            assert!(items.contains(&s[0]));
            assert!(custs.contains(&s[2]));
            assert!(dates.contains(&s[3]));
        }
        for c in &d.customer {
            assert!(hds.contains(&c[1]));
        }
        for cs in &d.catalog_sales {
            assert!(custs.contains(&cs[0]));
            assert!(dates.contains(&cs[1]));
        }
    }

    #[test]
    fn returns_reference_sales() {
        let d = TpcdsLite::generate(1, 9);
        assert!(!d.store_returns.is_empty());
        let sales: FxHashSet<(Value, Value)> = d.store_sales.iter().map(|s| (s[0], s[1])).collect();
        for r in &d.store_returns {
            assert!(sales.contains(&(r[0], r[1])));
        }
        // Roughly 10% return rate.
        let rate = d.store_returns.len() as f64 / d.store_sales.len() as f64;
        assert!((0.05..0.2).contains(&rate), "rate={rate}");
    }

    #[test]
    fn primary_keys_unique() {
        let d = TpcdsLite::generate(1, 11);
        let tickets: FxHashSet<Value> = d.store_sales.iter().map(|s| s[1]).collect();
        assert_eq!(tickets.len(), d.store_sales.len());
        let hd: FxHashSet<Value> = d.household_demographics.iter().map(|r| r[0]).collect();
        assert_eq!(hd.len(), d.household_demographics.len());
    }

    #[test]
    fn categories_are_skewed() {
        let d = TpcdsLite::generate(2, 13);
        let mut counts = [0usize; 10];
        for i in &d.item {
            counts[i[1] as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().filter(|&&c| c > 0).min().unwrap();
        assert!(max > 3 * min, "max={max} min={min}");
    }

    #[test]
    fn deterministic() {
        let a = TpcdsLite::generate(1, 21);
        let b = TpcdsLite::generate(1, 21);
        assert_eq!(a.store_sales, b.store_sales);
        assert_eq!(a.customer, b.customer);
    }
}
