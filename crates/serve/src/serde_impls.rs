//! `serde` feature: wire encodings for the serving vocabulary —
//! [`Rejected`] (admission shedding), [`TenantQuota`] (operator config)
//! and [`TenantStats`] (the stats a gateway reports per tenant).
//!
//! Field-per-field objects via the vendored `serde` shim's
//! `derive_struct!`, shaped like the derive output so swapping in the real
//! serde later is mechanical. `Rejected` is a tagged map
//! (`{"kind": ..., ...fields}`), the enum idiom used across the workspace.

use serde::json::{required, Parser, Writer};
use serde::{Deserialize, Error, Serialize};

use crate::drr::{TenantQuota, TenantStats};
use crate::scheduler::Rejected;

impl Serialize for Rejected {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Rejected::QueueFull { capacity } => w.object(|o| {
                o.field("capacity", capacity);
                o.field("kind", "queue_full");
            }),
            Rejected::TenantQuotaExceeded {
                tenant,
                queue_slots,
            } => w.object(|o| {
                o.field("kind", "tenant_quota_exceeded");
                o.field("queue_slots", queue_slots);
                o.field("tenant", tenant);
            }),
        }
    }
}

impl Deserialize for Rejected {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let (mut kind, mut capacity, mut tenant, mut queue_slots) = (None, None, None, None);
        p.object(|p, key| {
            match key {
                "kind" => kind = Some(String::deserialize(p)?),
                "capacity" => capacity = Some(usize::deserialize(p)?),
                "tenant" => tenant = Some(Deserialize::deserialize(p)?),
                "queue_slots" => queue_slots = Some(usize::deserialize(p)?),
                _ => p.skip()?,
            }
            Ok(())
        })?;
        match required(kind, "kind")?.as_str() {
            "queue_full" => Ok(Rejected::QueueFull {
                capacity: required(capacity, "capacity")?,
            }),
            "tenant_quota_exceeded" => Ok(Rejected::TenantQuotaExceeded {
                tenant: required(tenant, "tenant")?,
                queue_slots: required(queue_slots, "queue_slots")?,
            }),
            other => Err(Error(format!("unknown rejection kind `{other}`"))),
        }
    }
}

serde::derive_struct!(TenantQuota {
    max_in_flight,
    queue_slots,
    weight,
});

serde::derive_struct!(TenantStats {
    aborted,
    cancelled_queued,
    completed,
    dispatched,
    in_flight,
    io,
    max_latency,
    qps,
    queued,
    rejected,
    submitted,
    tenant,
    total_latency,
    weight,
});

#[cfg(test)]
mod tests {
    use super::*;
    use cca_storage::{IoStats, TenantId};
    use std::time::Duration;

    #[test]
    fn rejected_json_roundtrip_both_variants() {
        for r in [
            Rejected::QueueFull { capacity: 128 },
            Rejected::TenantQuotaExceeded {
                tenant: TenantId(9),
                queue_slots: 4,
            },
        ] {
            let back: Rejected = serde::json::from_str(&serde::json::to_string(&r)).unwrap();
            assert_eq!(back, r);
        }
        assert!(serde::json::from_str::<Rejected>("{\"kind\":\"tired\"}").is_err());
    }

    #[test]
    fn tenant_quota_json_roundtrip_including_unlimited() {
        for q in [
            TenantQuota::default(),
            TenantQuota::default()
                .weight(3)
                .queue_slots(64)
                .max_in_flight(2),
        ] {
            let back: TenantQuota = serde::json::from_str(&serde::json::to_string(&q)).unwrap();
            assert_eq!(back.weight, q.weight);
            assert_eq!(back.queue_slots, q.queue_slots);
            assert_eq!(back.max_in_flight, q.max_in_flight);
        }
    }

    #[test]
    fn tenant_stats_json_roundtrip() {
        let s = TenantStats {
            tenant: TenantId(3),
            weight: 2,
            submitted: 100,
            rejected: 5,
            dispatched: 90,
            completed: 80,
            aborted: 10,
            cancelled_queued: 1,
            queued: 4,
            in_flight: 2,
            io: IoStats {
                hits: 1000,
                faults: 50,
                writes: 0,
            },
            total_latency: Duration::from_millis(12345),
            max_latency: Duration::from_millis(700),
            qps: 12.5,
        };
        let back: TenantStats = serde::json::from_str(&serde::json::to_string(&s)).unwrap();
        assert_eq!(back.tenant, s.tenant);
        assert_eq!(back.submitted, s.submitted);
        assert_eq!(back.rejected, s.rejected);
        assert_eq!(back.dispatched, s.dispatched);
        assert_eq!(back.completed, s.completed);
        assert_eq!(back.aborted, s.aborted);
        assert_eq!(back.cancelled_queued, s.cancelled_queued);
        assert_eq!(back.queued, s.queued);
        assert_eq!(back.in_flight, s.in_flight);
        assert_eq!(back.io, s.io);
        assert_eq!(back.total_latency, s.total_latency);
        assert_eq!(back.max_latency, s.max_latency);
        assert_eq!(back.qps, s.qps);
    }
}
