//! Category vocabulary for synthetic POIs and photos.
//!
//! Query keywords in the paper's experiments are category names
//! ("religion", "education", "food", "services" for Table 4; "shop" for
//! Table 2). Each synthetic POI carries its category name plus one or two
//! sub-keywords; the per-category share parameters reproduce the ratio of
//! relevant POIs per |Ψ| reported in Table 4 (~0.5%, 1.5%, 5.4%, 9.6%
//! cumulative for the four benchmark keywords).

/// Specification of one POI category.
#[derive(Debug, Clone, Copy)]
pub struct CategorySpec {
    /// Category name — also the keyword users query for.
    pub name: &'static str,
    /// Fraction of all POIs in this category.
    pub(crate) share: f64,
    /// Sub-keywords attached to the category's POIs.
    pub(crate) sub_keywords: &'static [&'static str],
    /// Number of destination streets to plant for this category
    /// (ground truth for the effectiveness study).
    pub(crate) destination_streets: usize,
    /// Fraction of the category's POIs concentrated on destinations.
    pub(crate) destination_share: f64,
    /// Fraction of streets this category occurs on at all (churches
    /// cluster on few streets; offices are everywhere). 1.0 = no
    /// restriction.
    pub(crate) street_affinity: f64,
}

/// The category mix. Shares sum to 1.0 (enforced by a test).
pub const CATEGORIES: &[CategorySpec] = &[
    CategorySpec {
        name: "religion",
        share: 0.005,
        sub_keywords: &["church", "chapel", "temple", "mosque", "synagogue"],
        destination_streets: 0,
        destination_share: 0.0,
        street_affinity: 0.08,
    },
    CategorySpec {
        name: "education",
        share: 0.011,
        sub_keywords: &["school", "university", "college", "library", "kindergarten"],
        destination_streets: 0,
        destination_share: 0.0,
        street_affinity: 0.12,
    },
    CategorySpec {
        name: "food",
        share: 0.038,
        sub_keywords: &["restaurant", "cafe", "bar", "bakery", "bistro", "pub"],
        destination_streets: 3,
        destination_share: 0.25,
        street_affinity: 0.30,
    },
    CategorySpec {
        name: "services",
        share: 0.042,
        sub_keywords: &["bank", "pharmacy", "salon", "laundry", "post", "clinic"],
        destination_streets: 0,
        destination_share: 0.0,
        street_affinity: 0.40,
    },
    CategorySpec {
        name: "shop",
        share: 0.060,
        sub_keywords: &[
            "clothing",
            "shoes",
            "books",
            "electronics",
            "jewelry",
            "boutique",
            "mall",
        ],
        destination_streets: 5,
        destination_share: 0.45,
        street_affinity: 0.30,
    },
    CategorySpec {
        name: "culture",
        share: 0.030,
        sub_keywords: &["museum", "gallery", "theatre", "cinema", "monument"],
        destination_streets: 2,
        destination_share: 0.3,
        street_affinity: 0.15,
    },
    CategorySpec {
        name: "entertainment",
        share: 0.034,
        sub_keywords: &["club", "casino", "arcade", "park", "stadium"],
        destination_streets: 2,
        destination_share: 0.25,
        street_affinity: 0.20,
    },
    CategorySpec {
        name: "transport",
        share: 0.050,
        sub_keywords: &["station", "stop", "parking", "terminal"],
        destination_streets: 0,
        destination_share: 0.0,
        street_affinity: 0.35,
    },
    CategorySpec {
        name: "misc",
        share: 0.730,
        sub_keywords: &[
            "office",
            "residential",
            "building",
            "company",
            "warehouse",
            "studio",
            "agency",
            "workshop",
        ],
        destination_streets: 0,
        destination_share: 0.0,
        street_affinity: 1.0,
    },
];

/// Tags used by photo "event bursts" (the demonstration effect of Fig. 3b).
pub(crate) const EVENT_TAGS: &[&str] = &[
    "demonstration",
    "protest",
    "march",
    "parade",
    "festival",
    "marathon",
    "concert",
];

/// Tags used by landmark photo bursts (the HMV effect of Fig. 3a).
pub(crate) const LANDMARK_TAGS: &[&str] = &[
    "landmark",
    "famous",
    "storefront",
    "queue",
    "release",
    "crowd",
    "flagship",
];

/// Generic tourist-photo tags.
pub(crate) const TOURIST_TAGS: &[&str] = &[
    "travel",
    "city",
    "street",
    "architecture",
    "walk",
    "sightseeing",
    "holiday",
    "urban",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let total: f64 = CATEGORIES.iter().map(|c| c.share).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    }

    #[test]
    fn benchmark_keywords_present_in_order() {
        // Table 4's keyword prefix: religion, education, food, services.
        let names: Vec<&str> = CATEGORIES.iter().map(|c| c.name).collect();
        for kw in ["religion", "education", "food", "services", "shop"] {
            assert!(names.contains(&kw), "missing category {kw}");
        }
        // Cumulative shares grow like Table 4 (each step adds more).
        let share = |n: &str| CATEGORIES.iter().find(|c| c.name == n).unwrap().share;
        assert!(share("religion") < share("education"));
        assert!(share("education") < share("food"));
        assert!(share("food") < share("services"));
    }

    #[test]
    fn shop_has_destinations_for_table2() {
        let shop = CATEGORIES.iter().find(|c| c.name == "shop").unwrap();
        assert!(shop.destination_streets >= 4);
        assert!(shop.destination_share > 0.0);
    }

    #[test]
    fn all_categories_have_sub_keywords() {
        for c in CATEGORIES {
            assert!(!c.sub_keywords.is_empty(), "{} has no sub keywords", c.name);
        }
    }
}
