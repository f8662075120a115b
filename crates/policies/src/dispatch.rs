//! Enum-interned policy dispatch.
//!
//! The engine's hot loop calls [`TieringPolicy::on_access`] once or
//! twice per simulated access. Routing those calls through a
//! `Box<dyn TieringPolicy>` costs an indirect call that the optimiser
//! can neither inline nor hoist; [`PolicyBox`] interns the workspace's
//! concrete policies into enum variants resolved once at machine build
//! time, so the per-access dispatch is a jump table over code the
//! compiler can see through. Out-of-tree policies still run — they ride
//! in the [`PolicyBox::Custom`] variant at the old virtual-call cost.

use neomem_kernel::Kernel;
use neomem_profilers::AccessEvent;
use neomem_types::json::Json;
use neomem_types::{FaultKind, Nanos, Result, Tier, VirtPage};

use crate::{
    FirstTouchPolicy, HintFaultPolicy, MemtisPolicy, NeoMemPolicy, PebsPolicy, PolicyTelemetry,
    PteScanPolicy, TenantLayout, TieringPolicy,
};

/// A tiering policy with build-time-resolved dispatch.
///
/// Constructed via `From` on any concrete policy (or a boxed trait
/// object for out-of-tree implementations), and used exactly like the
/// trait object it replaces — `PolicyBox` itself implements
/// [`TieringPolicy`] by delegation.
pub enum PolicyBox {
    /// [`NeoMemPolicy`] (dynamic or fixed threshold, contention-aware).
    NeoMem(Box<NeoMemPolicy>),
    /// [`PebsPolicy`].
    Pebs(Box<PebsPolicy>),
    /// [`MemtisPolicy`].
    Memtis(Box<MemtisPolicy>),
    /// [`HintFaultPolicy`] (TPP / AutoNUMA).
    HintFault(Box<HintFaultPolicy>),
    /// [`PteScanPolicy`].
    PteScan(Box<PteScanPolicy>),
    /// [`FirstTouchPolicy`] (plain or pinned).
    FirstTouch(FirstTouchPolicy),
    /// Any other [`TieringPolicy`] implementation, dispatched virtually.
    Custom(Box<dyn TieringPolicy>),
}

impl std::fmt::Debug for PolicyBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyBox").field("name", &self.name()).finish()
    }
}

/// Fans a `&self`/`&mut self` method call out to whichever variant is
/// live. Every arm is a direct (devirtualisable) call except `Custom`.
macro_rules! each_policy {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            PolicyBox::NeoMem($p) => $body,
            PolicyBox::Pebs($p) => $body,
            PolicyBox::Memtis($p) => $body,
            PolicyBox::HintFault($p) => $body,
            PolicyBox::PteScan($p) => $body,
            PolicyBox::FirstTouch($p) => $body,
            PolicyBox::Custom($p) => $body,
        }
    };
}

impl TieringPolicy for PolicyBox {
    fn name(&self) -> &'static str {
        each_policy!(self, p => p.name())
    }

    fn alloc_preference(&self) -> Tier {
        each_policy!(self, p => p.alloc_preference())
    }

    #[inline]
    fn on_access(&mut self, ev: &AccessEvent, kernel: &mut Kernel) -> Nanos {
        each_policy!(self, p => p.on_access(ev, kernel))
    }

    fn maybe_tick(&mut self, kernel: &mut Kernel, now: Nanos) -> Nanos {
        each_policy!(self, p => p.maybe_tick(kernel, now))
    }

    fn drain_shootdowns_into(&mut self, out: &mut Vec<VirtPage>) {
        each_policy!(self, p => p.drain_shootdowns_into(out))
    }

    fn telemetry(&self) -> PolicyTelemetry {
        each_policy!(self, p => p.telemetry())
    }

    fn configure_tenants(&mut self, layout: &TenantLayout) {
        each_policy!(self, p => p.configure_tenants(layout))
    }

    fn on_tenant_arrival(&mut self, tenant: usize) {
        each_policy!(self, p => p.on_tenant_arrival(tenant))
    }

    fn on_tenant_departure(&mut self, tenant: usize) {
        each_policy!(self, p => p.on_tenant_departure(tenant))
    }

    fn note_cross_tenant_evictions(&mut self, aggressor: usize, pages: u64) {
        each_policy!(self, p => p.note_cross_tenant_evictions(aggressor, pages))
    }

    fn on_fault(&mut self, fault: &FaultKind, kernel: &mut Kernel, now: Nanos) -> Nanos {
        each_policy!(self, p => p.on_fault(fault, kernel, now))
    }

    fn on_recovery(&mut self, fault: &FaultKind, kernel: &mut Kernel, now: Nanos) -> Nanos {
        each_policy!(self, p => p.on_recovery(fault, kernel, now))
    }

    fn snapshot_state(&self) -> Json {
        each_policy!(self, p => p.snapshot_state())
    }

    fn restore_state(&mut self, state: &Json) -> Result<()> {
        each_policy!(self, p => p.restore_state(state))
    }
}

impl From<NeoMemPolicy> for PolicyBox {
    fn from(p: NeoMemPolicy) -> Self {
        PolicyBox::NeoMem(Box::new(p))
    }
}

impl From<PebsPolicy> for PolicyBox {
    fn from(p: PebsPolicy) -> Self {
        PolicyBox::Pebs(Box::new(p))
    }
}

impl From<MemtisPolicy> for PolicyBox {
    fn from(p: MemtisPolicy) -> Self {
        PolicyBox::Memtis(Box::new(p))
    }
}

impl From<HintFaultPolicy> for PolicyBox {
    fn from(p: HintFaultPolicy) -> Self {
        PolicyBox::HintFault(Box::new(p))
    }
}

impl From<PteScanPolicy> for PolicyBox {
    fn from(p: PteScanPolicy) -> Self {
        PolicyBox::PteScan(Box::new(p))
    }
}

impl From<FirstTouchPolicy> for PolicyBox {
    fn from(p: FirstTouchPolicy) -> Self {
        PolicyBox::FirstTouch(p)
    }
}

impl From<Box<NeoMemPolicy>> for PolicyBox {
    fn from(p: Box<NeoMemPolicy>) -> Self {
        PolicyBox::NeoMem(p)
    }
}

impl From<Box<PebsPolicy>> for PolicyBox {
    fn from(p: Box<PebsPolicy>) -> Self {
        PolicyBox::Pebs(p)
    }
}

impl From<Box<MemtisPolicy>> for PolicyBox {
    fn from(p: Box<MemtisPolicy>) -> Self {
        PolicyBox::Memtis(p)
    }
}

impl From<Box<HintFaultPolicy>> for PolicyBox {
    fn from(p: Box<HintFaultPolicy>) -> Self {
        PolicyBox::HintFault(p)
    }
}

impl From<Box<PteScanPolicy>> for PolicyBox {
    fn from(p: Box<PteScanPolicy>) -> Self {
        PolicyBox::PteScan(p)
    }
}

impl From<Box<FirstTouchPolicy>> for PolicyBox {
    fn from(p: Box<FirstTouchPolicy>) -> Self {
        PolicyBox::FirstTouch(*p)
    }
}

impl From<Box<dyn TieringPolicy>> for PolicyBox {
    fn from(p: Box<dyn TieringPolicy>) -> Self {
        PolicyBox::Custom(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concrete_policies_intern_without_boxing_ceremony() {
        let b: PolicyBox = FirstTouchPolicy::new().into();
        assert!(matches!(b, PolicyBox::FirstTouch(_)));
        assert_eq!(b.name(), "First-touch NUMA");

        let b: PolicyBox = Box::new(FirstTouchPolicy::pinned(Tier::Slow)).into();
        assert!(matches!(b, PolicyBox::FirstTouch(_)));
        assert_eq!(b.alloc_preference(), Tier::Slow);
    }

    #[test]
    fn trait_objects_fall_back_to_virtual_dispatch() {
        let obj: Box<dyn TieringPolicy> = Box::new(FirstTouchPolicy::new());
        let b: PolicyBox = obj.into();
        assert!(matches!(b, PolicyBox::Custom(_)));
        assert_eq!(b.name(), "First-touch NUMA");
    }
}
