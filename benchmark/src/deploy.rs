//! The three ways the workloads deploy the engine. Building one of these
//! from a database already in memory is what `setup_s` times.

use crate::scenario::{partition_spec, Scenario, VIEWS};
use cqc_common::error::Result;
use cqc_engine::{BlockService, Engine, ShardedEngine, ShardedEngineConfig};
use cqc_net::{ClientConfig, NetServer, NetServerConfig, Router, ServerHandle};
use cqc_storage::Partitioning;
use std::path::{Path, PathBuf};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// In-process `ShardedEngine`.
    Local,
    /// One loopback `NetServer` per shard behind a `Router`.
    Fleet,
    /// Unsharded `Engine` with a data directory attached.
    Durable,
}

// One deployment is alive at a time, so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Deployment {
    Local(ShardedEngine),
    Fleet {
        // Declared before the servers so it drops (and hangs up) first.
        router: Router,
        servers: Vec<ServerHandle>,
        engines: Vec<Arc<Engine>>,
    },
    Durable {
        engine: Engine,
        dir: PathBuf,
    },
}

/// Two shards where there are two cores; one core gets one shard, since
/// a second would only time-slice against the first.
pub fn shard_count() -> usize {
    crate::host::nproc().min(2)
}

impl Deployment {
    /// Builds the deployment and registers `views` through the same
    /// `BlockService::register_view` call a remote client would make.
    /// `data_dir` is used by [`Topology::Durable`] only and must not exist.
    pub fn set_up(
        topology: Topology,
        scenario: &Scenario,
        views: &[usize],
        data_dir: &Path,
    ) -> Result<Deployment> {
        let db = scenario.db.clone();
        let deployment = match topology {
            Topology::Local => Deployment::Local(ShardedEngine::new(
                db,
                partition_spec(),
                ShardedEngineConfig {
                    shards: shard_count(),
                    ..ShardedEngineConfig::default()
                },
            )?),
            Topology::Fleet => {
                let slices =
                    Partitioning::new(partition_spec(), shard_count())?.split_database(&db)?;
                let mut engines = Vec::new();
                let mut servers = Vec::new();
                for slice in slices {
                    let engine = Arc::new(Engine::new(slice));
                    servers.push(NetServer::spawn(
                        Arc::clone(&engine) as Arc<dyn BlockService>,
                        "127.0.0.1:0",
                        NetServerConfig::default(),
                    )?);
                    engines.push(engine);
                }
                let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
                let router = Router::connect(&addrs, partition_spec(), ClientConfig::default())?;
                Deployment::Fleet {
                    router,
                    servers,
                    engines,
                }
            }
            Topology::Durable => {
                let mut engine = Engine::new(db);
                engine.attach_durable(data_dir)?;
                Deployment::Durable {
                    engine,
                    dir: data_dir.to_path_buf(),
                }
            }
        };
        deployment.register(views)?;
        Ok(deployment)
    }

    pub fn register(&self, views: &[usize]) -> Result<()> {
        for v in views.iter().map(|&v| &VIEWS[v]) {
            self.service()
                .register_view(v.name, v.query, v.pattern, v.strategy)?;
        }
        Ok(())
    }

    /// What a client talks to.
    pub fn service(&self) -> &dyn BlockService {
        match self {
            Deployment::Local(e) => e,
            Deployment::Fleet { router, .. } => router,
            Deployment::Durable { engine, .. } => engine,
        }
    }

    /// The per-shard engines under the service, in shard order.
    pub fn shard_engines(&self) -> Vec<&Engine> {
        match self {
            Deployment::Local(e) => (0..e.num_shards()).map(|s| e.shard(s)).collect(),
            Deployment::Fleet { engines, .. } => engines.iter().map(|e| &**e).collect(),
            Deployment::Durable { engine, .. } => vec![engine],
        }
    }

    /// Bytes of every resident representation, all shards.
    pub fn rep_bytes(&self) -> usize {
        self.shard_engines()
            .iter()
            .map(|e| e.catalog_stats().resident_bytes)
            .sum()
    }
}
