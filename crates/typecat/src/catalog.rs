//! The [`Catalog`] container and summary statistics.

use std::fmt;
use std::sync::OnceLock;

use crate::entry::{Quirk, TypeEntry, TypeKind};

/// The platform language a catalog models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Language {
    /// Java SE 7.
    Java,
    /// C# / .NET Framework 4.0.
    CSharp,
}

impl fmt::Display for Language {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Language::Java => "Java",
            Language::CSharp => "C#",
        })
    }
}

/// An immutable class catalog for one platform library.
#[derive(Debug)]
pub struct Catalog {
    language: Language,
    entries: Vec<TypeEntry>,
    /// Entry indices sorted by fqcn: the lookup index for [`Catalog::get`],
    /// borrowing the names from `entries` instead of copying them.
    by_fqcn: Vec<u32>,
}

impl Catalog {
    fn from_entries(language: Language, entries: Vec<TypeEntry>) -> Catalog {
        let mut by_fqcn: Vec<u32> = (0..entries.len() as u32).collect();
        by_fqcn.sort_unstable_by_key(|&i| entries[i as usize].fqcn.as_str());
        assert!(
            by_fqcn
                .windows(2)
                .all(|w| entries[w[0] as usize].fqcn != entries[w[1] as usize].fqcn),
            "catalog fqcns must be unique"
        );
        Catalog {
            language,
            entries,
            by_fqcn,
        }
    }

    /// The shared Java SE 7 catalog (built once, then cached).
    pub fn java_se7() -> &'static Catalog {
        static CATALOG: OnceLock<Catalog> = OnceLock::new();
        CATALOG.get_or_init(|| {
            Catalog::from_entries(Language::Java, crate::java::build())
        })
    }

    /// The shared .NET 4.0 catalog (built once, then cached).
    pub fn dotnet40() -> &'static Catalog {
        static CATALOG: OnceLock<Catalog> = OnceLock::new();
        CATALOG.get_or_init(|| {
            Catalog::from_entries(Language::CSharp, crate::dotnet::build())
        })
    }

    /// The catalog's language.
    pub fn language(&self) -> Language {
        self.language
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the catalog is empty (never, for the built-ins).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, in catalog order.
    pub fn entries(&self) -> &[TypeEntry] {
        &self.entries
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> impl Iterator<Item = &TypeEntry> {
        self.entries.iter()
    }

    /// Looks up an entry by fully-qualified name.
    pub fn get(&self, fqcn: &str) -> Option<&TypeEntry> {
        let found = self
            .by_fqcn
            .binary_search_by(|&i| self.entries[i as usize].fqcn.as_str().cmp(fqcn));
        found.ok().map(|at| &self.entries[self.by_fqcn[at] as usize])
    }

    /// Entries carrying a given quirk.
    pub fn with_quirk(&self, quirk: Quirk) -> impl Iterator<Item = &TypeEntry> {
        self.entries.iter().filter(move |e| e.has_quirk(quirk))
    }

    /// Per-package class counts, sorted descending (a realism check on
    /// the synthetic population, and handy for catalog exploration).
    pub fn package_counts(&self) -> Vec<(String, usize)> {
        let mut counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for entry in &self.entries {
            *counts.entry(entry.package()).or_default() += 1;
        }
        let mut out: Vec<(String, usize)> = counts
            .into_iter()
            .map(|(package, count)| (package.to_string(), count))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Summary statistics.
    pub fn stats(&self) -> CatalogStats {
        let mut stats = CatalogStats {
            total: self.entries.len(),
            ..CatalogStats::default()
        };
        for e in &self.entries {
            match e.kind {
                TypeKind::Class => stats.classes += 1,
                TypeKind::AbstractClass => stats.abstract_classes += 1,
                TypeKind::Interface => stats.interfaces += 1,
                TypeKind::Enum => stats.enums += 1,
                TypeKind::Annotation => stats.annotations += 1,
                TypeKind::Delegate => stats.delegates += 1,
                TypeKind::Struct => stats.structs += 1,
            }
            if e.is_bean_bindable() {
                stats.bean_bindable += 1;
            }
            if e.is_throwable {
                stats.throwables += 1;
            }
            if !e.quirks.is_empty() {
                stats.quirked += 1;
            }
        }
        stats
    }
}

/// Aggregate catalog statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Total classes.
    pub total: usize,
    /// Concrete classes.
    pub classes: usize,
    /// Abstract classes.
    pub abstract_classes: usize,
    /// Interfaces.
    pub interfaces: usize,
    /// Enums.
    pub enums: usize,
    /// Annotations / attribute types.
    pub annotations: usize,
    /// Delegates.
    pub delegates: usize,
    /// Value types.
    pub structs: usize,
    /// Classes passing the bean-bindability predicate.
    pub bean_bindable: usize,
    /// Throwable-derived classes.
    pub throwables: usize,
    /// Classes carrying at least one quirk flag.
    pub quirked: usize,
}

impl fmt::Display for CatalogStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} types ({} classes, {} abstract, {} interfaces, {} enums, {} annotations, \
             {} delegates, {} structs); {} bindable, {} throwables, {} quirked",
            self.total,
            self.classes,
            self.abstract_classes,
            self.interfaces,
            self.enums,
            self.annotations,
            self.delegates,
            self.structs,
            self.bean_bindable,
            self.throwables,
            self.quirked
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn java_catalog_counts() {
        let catalog = Catalog::java_se7();
        assert_eq!(catalog.language(), Language::Java);
        assert_eq!(catalog.len(), 3971);
        let stats = catalog.stats();
        assert_eq!(stats.total, 3971);
        assert_eq!(stats.bean_bindable, 2489);
        assert_eq!(stats.throwables, 477 + catalog
            .iter()
            .filter(|e| e.is_throwable && !e.is_bean_bindable())
            .count());
    }

    #[test]
    fn dotnet_catalog_counts() {
        let catalog = Catalog::dotnet40();
        assert_eq!(catalog.language(), Language::CSharp);
        assert_eq!(catalog.len(), 14_082);
        assert_eq!(catalog.stats().bean_bindable, 2_502);
    }

    #[test]
    fn lookup_by_fqcn() {
        let catalog = Catalog::java_se7();
        assert!(catalog.get("java.lang.String").is_some());
        assert!(catalog.get("java.lang.DoesNotExist").is_none());
    }

    #[test]
    fn every_entry_resolves_to_itself() {
        for catalog in [Catalog::java_se7(), Catalog::dotnet40()] {
            for entry in catalog.iter() {
                let found = catalog.get(&entry.fqcn).expect("catalog entry resolves");
                assert!(std::ptr::eq(found, entry), "{}", entry.fqcn);
            }
            // Names that sort before, between and after the entries.
            for unknown in ["", "a", "java.lang.String.", "zzz.Nope", "System.Nope"] {
                assert!(catalog.get(unknown).is_none(), "{unknown}");
            }
        }
    }

    #[test]
    fn with_quirk_filters() {
        let catalog = Catalog::dotnet40();
        assert_eq!(catalog.with_quirk(Quirk::DataSetStyle).count(), 76);
        assert_eq!(catalog.with_quirk(Quirk::JscriptCrash).count(), 15);
    }

    #[test]
    fn cached_instances_are_shared() {
        let a = Catalog::java_se7() as *const Catalog;
        let b = Catalog::java_se7() as *const Catalog;
        assert_eq!(a, b);
    }

    #[test]
    fn package_counts_cover_the_whole_catalog() {
        for catalog in [Catalog::java_se7(), Catalog::dotnet40()] {
            let counts = catalog.package_counts();
            let total: usize = counts.iter().map(|(_, n)| n).sum();
            assert_eq!(total, catalog.len());
            // Sorted descending.
            for pair in counts.windows(2) {
                assert!(pair[0].1 >= pair[1].1);
            }
            // The population is spread over many packages, not one blob.
            assert!(counts.len() > 25, "{}", counts.len());
        }
    }

    #[test]
    fn java_packages_look_like_java() {
        let counts = Catalog::java_se7().package_counts();
        assert!(counts
            .iter()
            .all(|(p, _)| p.starts_with("java") || p.starts_with("org.omg")));
    }

    #[test]
    fn stats_display_is_informative() {
        let text = Catalog::java_se7().stats().to_string();
        assert!(text.contains("3971 types"));
        assert!(text.contains("2489 bindable"));
    }
}
