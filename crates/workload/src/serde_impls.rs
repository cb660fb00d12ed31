//! JSON (de)serialisation for the `kind`-tagged traffic-model enums
//! (`TrafficModel` itself derives its map), so
//! campaign artifacts under `results/contention/` are
//! self-describing: every cell records the exact model that produced
//! it. These types feed the campaign cache and are listed in the
//! `CACHE_SCHEMA_VERSION` manifest in `bench/engine.rs`.

use serde::{Content, DeError, Deserialize, Serialize};

use crate::arrival::ArrivalProcess;
use crate::traffic::ConflictProfile;

impl Serialize for ArrivalProcess {
    fn to_content(&self) -> Content {
        let mut map: Vec<(String, Content)> = Vec::new();
        let kind = match self {
            ArrivalProcess::Constant { tps } => {
                map.push(("tps".to_owned(), tps.to_content()));
                "constant"
            }
            ArrivalProcess::Poisson { tps } => {
                map.push(("tps".to_owned(), tps.to_content()));
                "poisson"
            }
            ArrivalProcess::BurstTrain {
                base_tps,
                period,
                burst_len,
                factor,
            } => {
                map.push(("base_tps".to_owned(), base_tps.to_content()));
                map.push(("period".to_owned(), period.to_content()));
                map.push(("burst_len".to_owned(), burst_len.to_content()));
                map.push(("factor".to_owned(), factor.to_content()));
                "burst-train"
            }
            ArrivalProcess::FlashCrowd {
                base_tps,
                at,
                ramp,
                factor,
            } => {
                map.push(("base_tps".to_owned(), base_tps.to_content()));
                map.push(("at".to_owned(), at.to_content()));
                map.push(("ramp".to_owned(), ramp.to_content()));
                map.push(("factor".to_owned(), factor.to_content()));
                "flash-crowd"
            }
            ArrivalProcess::Diurnal {
                mean_tps,
                period,
                amplitude_permille,
            } => {
                map.push(("mean_tps".to_owned(), mean_tps.to_content()));
                map.push(("period".to_owned(), period.to_content()));
                map.push((
                    "amplitude_permille".to_owned(),
                    amplitude_permille.to_content(),
                ));
                "diurnal"
            }
        };
        map.insert(0, ("kind".to_owned(), Content::Str(kind.to_owned())));
        Content::Map(map)
    }
}

impl Deserialize for ArrivalProcess {
    fn from_content(content: &Content) -> Result<ArrivalProcess, DeError> {
        let kind: String = serde::__private::field(content, "kind")?;
        match kind.as_str() {
            "constant" => Ok(ArrivalProcess::Constant {
                tps: serde::__private::field(content, "tps")?,
            }),
            "poisson" => Ok(ArrivalProcess::Poisson {
                tps: serde::__private::field(content, "tps")?,
            }),
            "burst-train" => Ok(ArrivalProcess::BurstTrain {
                base_tps: serde::__private::field(content, "base_tps")?,
                period: serde::__private::field(content, "period")?,
                burst_len: serde::__private::field(content, "burst_len")?,
                factor: serde::__private::field(content, "factor")?,
            }),
            "flash-crowd" => Ok(ArrivalProcess::FlashCrowd {
                base_tps: serde::__private::field(content, "base_tps")?,
                at: serde::__private::field(content, "at")?,
                ramp: serde::__private::field(content, "ramp")?,
                factor: serde::__private::field(content, "factor")?,
            }),
            "diurnal" => Ok(ArrivalProcess::Diurnal {
                mean_tps: serde::__private::field(content, "mean_tps")?,
                period: serde::__private::field(content, "period")?,
                amplitude_permille: serde::__private::field(content, "amplitude_permille")?,
            }),
            other => Err(DeError::custom(format!(
                "unknown arrival process {other:?}"
            ))),
        }
    }
}

impl Serialize for ConflictProfile {
    fn to_content(&self) -> Content {
        let mut map: Vec<(String, Content)> = Vec::new();
        let kind = match self {
            ConflictProfile::Skewed => "skewed",
            ConflictProfile::Disjoint => "disjoint",
            ConflictProfile::HotSpot { permille } => {
                map.push(("permille".to_owned(), permille.to_content()));
                "hot-spot"
            }
        };
        map.insert(0, ("kind".to_owned(), Content::Str(kind.to_owned())));
        Content::Map(map)
    }
}

impl Deserialize for ConflictProfile {
    fn from_content(content: &Content) -> Result<ConflictProfile, DeError> {
        let kind: String = serde::__private::field(content, "kind")?;
        match kind.as_str() {
            "skewed" => Ok(ConflictProfile::Skewed),
            "disjoint" => Ok(ConflictProfile::Disjoint),
            "hot-spot" => Ok(ConflictProfile::HotSpot {
                permille: serde::__private::field(content, "permille")?,
            }),
            other => Err(DeError::custom(format!(
                "unknown conflict profile {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use stabl_sim::{SimDuration, SimTime};

    use super::*;
    use crate::traffic::TrafficModel;

    fn roundtrip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: T) {
        let json = serde_json::to_string(&value).expect("serialize");
        let back: T = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, value, "{json}");
    }

    #[test]
    fn arrival_processes_roundtrip() {
        roundtrip(ArrivalProcess::Constant { tps: 40 });
        roundtrip(ArrivalProcess::Poisson { tps: 7 });
        roundtrip(ArrivalProcess::BurstTrain {
            base_tps: 10,
            period: SimDuration::from_secs(10),
            burst_len: SimDuration::from_secs(1),
            factor: 16,
        });
        roundtrip(ArrivalProcess::FlashCrowd {
            base_tps: 10,
            at: SimTime::from_secs(100),
            ramp: SimDuration::from_secs(5),
            factor: 8,
        });
        roundtrip(ArrivalProcess::Diurnal {
            mean_tps: 40,
            period: SimDuration::from_secs(300),
            amplitude_permille: 800,
        });
    }

    #[test]
    fn traffic_model_roundtrips() {
        for conflict in [
            ConflictProfile::Skewed,
            ConflictProfile::Disjoint,
            ConflictProfile::HotSpot { permille: 125 },
        ] {
            roundtrip(TrafficModel {
                accounts: 10_000_000,
                theta_permille: 900,
                arrival: ArrivalProcess::Poisson { tps: 40 },
                conflict,
            });
        }
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert!(serde_json::from_str::<ConflictProfile>(r#"{"kind":"wat"}"#).is_err());
        assert!(serde_json::from_str::<ArrivalProcess>(r#"{"kind":"wat"}"#).is_err());
    }
}
