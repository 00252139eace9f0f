//! The call-edge rewrite table: the one hook both context-free engines
//! drive.
//!
//! The cut-shortcut pass ([`crate::cutshortcut`]) and the bottom-up
//! summary pass ([`crate::summaries`]) buy precision the same way: they
//! never create a context, they reroute the parameter and return flow of
//! individual call edges around the callee's shared formals. Each pass
//! emits its decisions as a [`RewriteTable`]; the solver applies the
//! table in one place (`add_call_edge`) and the Datalog reference model
//! loads it as one family of EDB relations. Per method the table holds:
//!
//! - for each formal parameter, an optional [`ParamRewrite`] — the
//!   actual goes *to the call's result* (identity) or *into a field of
//!   the site's receiver objects* (setter) instead of into the formal;
//! - an optional list of [`RetAtom`]s — when present, the `ret → result`
//!   edge is replaced by the atoms, each a source the result reads
//!   directly: a formal of some method, a field of the site's receiver
//!   objects, an allocation site, or a global.
//!
//! Receiver-field rewrites only ever name instance methods, and a static
//! call never targets an instance method (`rudoop_ir::validate` rejects
//! it), so a receiver-field rewrite always meets a call site that has a
//! receiver.
//!
//! Both engines run under the context-insensitive policy; the table's
//! [`name`](RewriteTable::name) is the analysis name reports print.

use rudoop_ir::{AllocId, FieldId, GlobalId, IdxVec, MethodId};

/// Where the values of one actual argument go instead of the callee's
/// formal parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamRewrite {
    /// Straight into the call's result (an identity parameter). A call
    /// without a result drops the value.
    ToResult,
    /// Into field `f` of the call site's own receiver objects (a setter
    /// parameter).
    ToReceiverField(FieldId),
}

/// One source of a rewritten return: the call's result reads it directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RetAtom {
    /// The `i`-th formal parameter of method `m`, read under the callee
    /// context — the union over all of `m`'s call sites.
    Formal(MethodId, usize),
    /// Field `f` of the call site's own receiver objects.
    ReceiverField(FieldId),
    /// Objects of allocation site `h`, under the empty heap context.
    Alloc(AllocId),
    /// The objects of static field `g`.
    Global(GlobalId),
}

/// The rewrites of one method's call edges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MethodRewrite {
    /// Per formal parameter (by position), the rewrite of its incoming
    /// edge, if any; parameters past the end are not rewritten.
    pub params: Vec<Option<ParamRewrite>>,
    /// When present, the atoms that replace the `ret → result` edge,
    /// sorted and deduplicated; empty means nothing flows back.
    pub ret: Option<Vec<RetAtom>>,
}

impl MethodRewrite {
    /// Whether no edge of the method is rewritten.
    pub fn is_empty(&self) -> bool {
        self.ret.is_none() && self.params.iter().all(Option::is_none)
    }
}

/// Per-method call-edge rewrites, produced by one pre-analysis pass and
/// carried to the solver in [`crate::solver::SolverConfig::rewrites`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RewriteTable {
    name: &'static str,
    methods: IdxVec<MethodId, MethodRewrite>,
}

impl RewriteTable {
    /// A table named `name` (the analysis name of runs that apply it).
    pub fn new(name: &'static str, methods: IdxVec<MethodId, MethodRewrite>) -> RewriteTable {
        RewriteTable { name, methods }
    }

    /// The analysis name of runs that apply this table.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The rewrite of parameter `index` of `method`, if any.
    #[inline]
    pub fn param(&self, method: MethodId, index: usize) -> Option<ParamRewrite> {
        self.methods
            .get(method)
            .and_then(|m| m.params.get(index).copied().flatten())
    }

    /// The atoms replacing `method`'s `ret → result` edge; `None` keeps
    /// the edge.
    #[inline]
    pub fn ret(&self, method: MethodId) -> Option<&[RetAtom]> {
        self.methods.get(method).and_then(|m| m.ret.as_deref())
    }

    /// Every method's rewrites, in method-table order.
    pub fn iter(&self) -> impl Iterator<Item = (MethodId, &MethodRewrite)> {
        self.methods.iter()
    }
}
