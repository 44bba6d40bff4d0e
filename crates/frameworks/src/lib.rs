//! # wsinterop-frameworks
//!
//! The simulated web-service framework subsystems under test:
//!
//! * [`server`] — the three server-side subsystems of Table I
//!   (Metro/GlassFish, JBossWS CXF/JBoss AS, WCF .NET/IIS), each a
//!   [`server::ServerSubsystem`] that binds catalog classes and
//!   publishes real WSDL XML — including every documented quirk;
//! * [`client`] — the eleven client-side subsystems of Table II
//!   (wsimport, Axis1/Axis2/CXF wsdl2java, wsconsume, wsdl.exe ×3,
//!   gSOAP, Zend, suds), each a [`client::ClientSubsystem`] that parses
//!   WSDL text and generates artifact code models — with every
//!   documented generation defect.
//!
//! Client behaviour is a function of **document content only** (via
//! [`client::facts::DocFacts`]); no catalog metadata crosses the wire.
//! The defects the generators plant are genuine flaws in the artifact
//! model that the `wsinterop-compilers` toolchains then discover.
//!
//! The subsystems know nothing of *injected* faults: the chaos
//! campaign in `wsinterop-core` decides those itself and injects them
//! around its own calls to [`server::ServerSubsystem::deploy`] and the
//! client generators.
//!
//! ## Example
//!
//! ```
//! use wsinterop_frameworks::server::{Metro, ServerSubsystem};
//! use wsinterop_frameworks::client::{MetroClient, ClientSubsystem};
//!
//! let server = Metro;
//! let entry = server.catalog().get("java.lang.String").unwrap();
//! let wsdl = server.deploy(entry).wsdl().unwrap().to_string();
//! let outcome = MetroClient.generate(&wsdl);
//! assert!(outcome.succeeded());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod server;
