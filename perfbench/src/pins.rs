//! Pinned outputs of the full-size workloads, checked at every seed.
//!
//! A workload seed only decides which of several structurally identical
//! classes each generated allocation site instantiates (the value classes
//! of a pool, the wrapper classes of an amplifier), so every seed yields an
//! isomorphic program and the same counts. The one exception would be a
//! seed that leaves one of those classes with no allocation site at all;
//! at the sizes of these specs (at least 24 sites over at most 12 classes
//! per choice) that chance is below 1 in 5,000 per seed.
//!
//! Each batch job's fingerprint is its precision triple
//! (polymorphic call sites / reachable methods / casts that may fail), the
//! canonical `SolverStats` counters of its main pass and of its first pass
//! (derivations / cs var-points-to / cs field-points-to / call-graph edges
//! / reachable contexts / contexts / heap contexts / nodes / edges), and
//! for introspective jobs the unrefined objects and call sites over their
//! reachable totals. A change to any of these is a change in analysis
//! results, not in speed.

/// `(job label, fingerprint)`.
pub const JOBS: &[(&str, &str)] = &[
    (
        "bloat/2objH",
        "prec=12/1074/12 main=9383346/8777392/585494/20459/3511/1845/852/31185/41888",
    ),
    (
        "hsqldb/introB:2objH",
        "prec=12/1809/12 main=14962522/11039130/3830928/92463/9309/7905/1674/53297/207536 \
         first=617944/234955/374337/8651/1875/1/1/12751/13634 unrefined=361/3695,87/7558",
    ),
    (
        "jython/introA:2objH",
        "prec=20/1303/16 main=2558799/772954/1769213/16631/1738/686/630/16356/28173 \
         first=2559964/773594/1769213/17156/1351/1/1/15007/27631 unrefined=1485/9178,6344/16212",
    ),
    (
        "hsqldb/introA:2objH",
        "prec=18/1827/18 main=618279/235815/374337/8126/2862/1584/1530/16200/15076 \
         first=617944/234955/374337/8651/1875/1/1/12751/13634 unrefined=773/3695,1929/7558",
    ),
    (
        "jython/cutshortcut",
        "prec=14/1285/10 main=1006366/325904/663911/16550/1285/1/1/14787/29551",
    ),
    (
        "hsqldb/cutshortcut",
        "prec=12/1809/12 main=467889/168675/291168/8045/1809/1/1/12531/16808",
    ),
    (
        "jython/summaries",
        "prec=36/1351/32 main=1114337/361055/736125/17156/1351/1/1/15007/28516",
    ),
    (
        "hsqldb/summaries",
        "prec=34/1875/34 main=495335/185858/300825/8651/1875/1/1/12751/15220",
    ),
];

/// `(query kind, headline count)`: taint leaks and races of the
/// `daemon-mix` program.
pub const HEADLINES: &[(&str, usize)] = &[("taint", 2), ("races", 1)];

/// The pinned fingerprint of `label`.
pub fn job(label: &str) -> Option<&'static str> {
    JOBS.iter().find(|(l, _)| *l == label).map(|&(_, f)| f)
}

/// The pinned headline count of query kind `kind`.
pub fn headline(kind: &str) -> Option<usize> {
    HEADLINES.iter().find(|(k, _)| *k == kind).map(|&(_, n)| n)
}
