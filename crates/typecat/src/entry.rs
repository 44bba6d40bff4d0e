//! Per-class metadata: [`TypeEntry`], structural kind, fields, and the
//! behavioural quirk flags that drive the reproduced fault model.

use std::fmt;

/// The structural kind of a catalog type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeKind {
    /// A concrete class.
    Class,
    /// An abstract class.
    AbstractClass,
    /// An interface.
    Interface,
    /// An enumeration.
    Enum,
    /// A Java annotation / .NET attribute type.
    Annotation,
    /// A .NET delegate type.
    Delegate,
    /// A .NET value type (struct).
    Struct,
}

impl TypeKind {
    /// Kinds that can, in principle, be instantiated as message beans.
    pub fn instantiable(self) -> bool {
        matches!(self, TypeKind::Class | TypeKind::Enum | TypeKind::Struct)
    }
}

/// The simple-typed shape of one bean field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldKind {
    /// Free-form text.
    Text,
    /// 32-bit integer.
    Integer,
    /// 64-bit integer.
    Long,
    /// Boolean flag.
    Flag,
    /// Double-precision number.
    Real,
    /// Timestamp.
    Timestamp,
    /// Opaque bytes.
    Binary,
}

impl FieldKind {
    /// The kinds used for ordinary synthetic bean fields. `Binary`
    /// is deliberately excluded: base64 content is a *binding-rule
    /// special* (it marks the JScript transport-gap services), so it
    /// must never appear in an ordinary bean by accident.
    const ROTATION: [FieldKind; 6] = [
        FieldKind::Text,
        FieldKind::Integer,
        FieldKind::Long,
        FieldKind::Flag,
        FieldKind::Real,
        FieldKind::Timestamp,
    ];

    /// Deterministically picks an ordinary kind from a hash value.
    pub fn from_hash(hash: u64) -> FieldKind {
        FieldKind::ROTATION[(hash % FieldKind::ROTATION.len() as u64) as usize]
    }
}

/// One bean field: name plus simple-typed kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSpec {
    /// Field name (camelCase), from the generator's static vocabulary.
    pub name: &'static str,
    /// Field shape.
    pub kind: FieldKind,
}

/// Behavioural quirk flags attached to catalog classes.
///
/// Each flag marks a class whose generated service description — or
/// whose generated client artifacts — exhibit one of the concrete
/// failure modes documented in the paper. The flags say *what the class
/// is* (e.g. "this is a DataSet-style type"); the framework emitters and
/// generators decide what to do about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u32)]
pub enum Quirk {
    /// JAX-WS `W3CEndpointReference`: WSDL imports the WS-Addressing
    /// namespace without a `schemaLocation` (fails WS-I R2102).
    WsAddressing = 1 << 0,
    /// `java.text.SimpleDateFormat` family: Metro emits a `type=` part
    /// (fails R2204); JBossWS drops `soap:operation` (fails R2745).
    TextFormat = 1 << 1,
    /// `java.util.concurrent.Future` / `javax.xml.ws.Response`: JAX-WS
    /// async infrastructure. Metro refuses deployment; JBossWS publishes
    /// an operation-less WSDL.
    AsyncInfrastructure = 1 << 2,
    /// `javax.xml.datatype.XMLGregorianCalendar`: Axis2 drops the
    /// `local_` parameter prefix, producing uncompilable artifacts.
    XmlCalendar = 1 << 3,
    /// JScript .NET fails to emit transport functions for this class's
    /// service when consuming Java platforms.
    JscriptTransportGap = 1 << 4,
    /// wsdl.exe for Visual Basic generates a member/method name
    /// collision for this class's service.
    VbNameCollision = 1 << 5,
    /// `.NET` DataSet-style type: WSDL carries `ref="s:schema"` and
    /// `ref="s:lang"` (fails WS-I R2105/R2106).
    DataSetStyle = 1 << 6,
    /// Subset of [`Quirk::DataSetStyle`] whose WSDL additionally breaks
    /// Axis1 generation.
    DataSetAxis1Fatal = 1 << 7,
    /// Subset of [`Quirk::DataSetStyle`] whose WSDL additionally breaks
    /// gSOAP's two-stage generation.
    DataSetGsoapFatal = 1 << 8,
    /// Subset of [`Quirk::DataSetStyle`] that the `.NET` client tools
    /// themselves warn about.
    DataSetDotnetWarn = 1 << 9,
    /// Subset of [`Quirk::DataSetStyle`] that breaks suds.
    DataSetSudsFatal = 1 << 10,
    /// `.NET` type whose WSDL carries only the `s:lang` attribute ref
    /// (fails WS-I R2106 but is tolerated by Java consumers).
    LangAttrOnly = 1 << 11,
    /// `System.Data.DataTable`-style: WS-I-conformant `xsd:any` wrapper
    /// that Java consumers nevertheless reject.
    AnyContent = 1 << 12,
    /// `System.Net.Sockets.SocketError`-style bare enum binding that
    /// makes Axis2 emit duplicate variables.
    BareEnum = 1 << 13,
    /// `System.Web.UI.WebControls` class whose artifacts collide a VB
    /// parameter with a method name.
    WebControlsCollision = 1 << 14,
    /// `.NET` class whose artifacts the JScript compiler cannot build.
    JscriptHostile = 1 << 15,
    /// Subset of [`Quirk::JscriptHostile`] that crashes the JScript
    /// compiler outright (`131 INTERNAL COMPILER CRASH`).
    JscriptCrash = 1 << 16,
}

impl Quirk {
    /// Every quirk, in declaration order.
    pub const ALL: [Quirk; 17] = [
        Quirk::WsAddressing,
        Quirk::TextFormat,
        Quirk::AsyncInfrastructure,
        Quirk::XmlCalendar,
        Quirk::JscriptTransportGap,
        Quirk::VbNameCollision,
        Quirk::DataSetStyle,
        Quirk::DataSetAxis1Fatal,
        Quirk::DataSetGsoapFatal,
        Quirk::DataSetDotnetWarn,
        Quirk::DataSetSudsFatal,
        Quirk::LangAttrOnly,
        Quirk::AnyContent,
        Quirk::BareEnum,
        Quirk::WebControlsCollision,
        Quirk::JscriptHostile,
        Quirk::JscriptCrash,
    ];
}

/// A small set of [`Quirk`]s (bit set).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct QuirkSet(u32);

impl QuirkSet {
    /// The empty set.
    pub fn empty() -> QuirkSet {
        QuirkSet(0)
    }

    /// A set with one quirk.
    pub fn of(quirk: Quirk) -> QuirkSet {
        QuirkSet(quirk as u32)
    }

    /// Adds a quirk in place.
    pub fn insert(&mut self, quirk: Quirk) {
        self.0 |= quirk as u32;
    }

    /// Builder form of [`QuirkSet::insert`].
    #[must_use]
    pub fn with(mut self, quirk: Quirk) -> QuirkSet {
        self.insert(quirk);
        self
    }

    /// Membership test.
    pub fn contains(&self, quirk: Quirk) -> bool {
        self.0 & (quirk as u32) != 0
    }

    /// `true` when no quirks are set.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates over the contained quirks, in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = Quirk> + '_ {
        Quirk::ALL.into_iter().filter(|q| self.contains(*q))
    }
}

impl FromIterator<Quirk> for QuirkSet {
    fn from_iter<T: IntoIterator<Item = Quirk>>(iter: T) -> Self {
        let mut set = QuirkSet::empty();
        for q in iter {
            set.insert(q);
        }
        set
    }
}

impl fmt::Display for QuirkSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("-");
        }
        let mut first = true;
        for q in self.iter() {
            if !first {
                f.write_str("+")?;
            }
            write!(f, "{q:?}")?;
            first = false;
        }
        Ok(())
    }
}

/// Metadata for one class of the simulated platform library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeEntry {
    /// Fully-qualified name (`java.util.ArrayList`).
    pub fqcn: String,
    /// Structural kind.
    pub kind: TypeKind,
    /// Has a public no-argument constructor.
    pub has_default_ctor: bool,
    /// Number of generic type parameters.
    pub generic_arity: u8,
    /// Readable/writable bean fields.
    pub fields: Vec<FieldSpec>,
    /// Is (transitively) a `java.lang.Throwable` (Java only).
    pub is_throwable: bool,
    /// Behavioural quirks.
    pub quirks: QuirkSet,
}

impl TypeEntry {
    /// Package / namespace part: `fqcn` before its last `.` (empty in
    /// the default package).
    pub fn package(&self) -> &str {
        self.fqcn.rsplit_once('.').map_or("", |(package, _)| package)
    }

    /// Simple name: `fqcn` after its last `.`.
    pub fn simple_name(&self) -> &str {
        self.fqcn.rsplit_once('.').map_or(&self.fqcn, |(_, simple)| simple)
    }

    /// The baseline "can this type be a service parameter" predicate
    /// shared by every simulated server framework: a concrete,
    /// non-generic, default-constructible class, enum or struct.
    ///
    /// Individual frameworks layer extra rules on top (e.g. the
    /// simulated JBossWS additionally requires at least one bean field,
    /// which is why it deploys fewer Java services than Metro).
    pub fn is_bean_bindable(&self) -> bool {
        self.kind.instantiable() && self.has_default_ctor && self.generic_arity == 0
    }

    /// Convenience quirk test.
    pub fn has_quirk(&self, quirk: Quirk) -> bool {
        self.quirks.contains(quirk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(kind: TypeKind, ctor: bool, generics: u8) -> TypeEntry {
        TypeEntry {
            fqcn: "p.T".into(),
            kind,
            has_default_ctor: ctor,
            generic_arity: generics,
            fields: vec![],
            is_throwable: false,
            quirks: QuirkSet::empty(),
        }
    }

    #[test]
    fn bindability_predicate() {
        assert!(entry(TypeKind::Class, true, 0).is_bean_bindable());
        assert!(entry(TypeKind::Enum, true, 0).is_bean_bindable());
        assert!(entry(TypeKind::Struct, true, 0).is_bean_bindable());
        assert!(!entry(TypeKind::Interface, true, 0).is_bean_bindable());
        assert!(!entry(TypeKind::AbstractClass, true, 0).is_bean_bindable());
        assert!(!entry(TypeKind::Annotation, true, 0).is_bean_bindable());
        assert!(!entry(TypeKind::Delegate, true, 0).is_bean_bindable());
        assert!(!entry(TypeKind::Class, false, 0).is_bean_bindable());
        assert!(!entry(TypeKind::Class, true, 1).is_bean_bindable());
    }

    #[test]
    fn package_and_simple_name_split_at_the_last_dot() {
        let mut e = entry(TypeKind::Class, true, 0);
        e.fqcn = "java.util.concurrent.Future".into();
        assert_eq!((e.package(), e.simple_name()), ("java.util.concurrent", "Future"));
        e.fqcn = "Foo".into();
        assert_eq!((e.package(), e.simple_name()), ("", "Foo"));
    }

    #[test]
    fn quirk_set_operations() {
        let mut set = QuirkSet::empty();
        assert!(set.is_empty());
        set.insert(Quirk::DataSetStyle);
        set.insert(Quirk::DataSetGsoapFatal);
        assert!(set.contains(Quirk::DataSetStyle));
        assert!(!set.contains(Quirk::BareEnum));
        assert_eq!(set.iter().count(), 2);
    }

    #[test]
    fn quirk_set_collect_and_display() {
        let set: QuirkSet = [Quirk::AnyContent, Quirk::BareEnum].into_iter().collect();
        assert_eq!(set.to_string(), "AnyContent+BareEnum");
        assert_eq!(QuirkSet::empty().to_string(), "-");
    }

    #[test]
    fn quirk_bits_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for q in Quirk::ALL {
            assert!(seen.insert(q as u32), "duplicate bit for {q:?}");
        }
    }

    #[test]
    fn field_kind_from_hash_never_yields_binary() {
        for h in 0..1000u64 {
            assert_ne!(FieldKind::from_hash(h), FieldKind::Binary);
        }
    }
}
