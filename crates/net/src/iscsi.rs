//! iSCSI-style network block protocol.
//!
//! The paper's EndPoints "expose the disks onto the network through a
//! network storage protocol … we choose iSCSI" (§IV-B). This module models
//! the protocol at the message level: a [`IscsiServer`] hosts named targets
//! backed by [`BlockDevice`]s; an [`IscsiSession`] is an initiator-side
//! login through which clients issue reads and writes. Timing comes out of
//! the RPC round trips plus the backing device's service time, which is
//! what Figure 6's parts 2–3 measure.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use ustore_sim::Sim;

use crate::blockdev::{BlockDevice, BlockError};
use crate::network::Addr;
use crate::rpc::{RpcError, RpcNode};

/// iSCSI-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IscsiError {
    /// Transport failure (timeout, dead peer).
    Rpc(RpcError),
    /// The server has no target with the requested name.
    NoSuchTarget,
    /// The backing device failed the operation.
    Block(BlockError),
}

impl fmt::Display for IscsiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IscsiError::Rpc(e) => write!(f, "iscsi transport: {e}"),
            IscsiError::NoSuchTarget => write!(f, "no such iscsi target"),
            IscsiError::Block(e) => write!(f, "iscsi target io: {e}"),
        }
    }
}

impl std::error::Error for IscsiError {}

impl From<RpcError> for IscsiError {
    fn from(e: RpcError) -> Self {
        IscsiError::Rpc(e)
    }
}

struct LoginReq {
    target: String,
}
type LoginResp = Result<u64, IscsiError>; // capacity

struct ReadReq {
    target: String,
    offset: u64,
    len: u64,
}
type ReadResp = Result<Vec<u8>, IscsiError>;

struct WriteReq {
    target: String,
    offset: u64,
    data: Vec<u8>,
}
type WriteResp = Result<(), IscsiError>;

/// Serves named block targets at one network address.
pub struct IscsiServer {
    rpc: RpcNode,
    targets: Rc<RefCell<HashMap<String, Rc<dyn BlockDevice>>>>,
}

impl fmt::Debug for IscsiServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IscsiServer")
            .field("addr", self.rpc.addr())
            .field("targets", &self.targets.borrow().len())
            .finish()
    }
}

impl IscsiServer {
    /// Creates a target server on an existing RPC endpoint.
    pub fn new(rpc: RpcNode) -> Self {
        let targets: Rc<RefCell<HashMap<String, Rc<dyn BlockDevice>>>> =
            Rc::new(RefCell::new(HashMap::new()));

        let t = targets.clone();
        let comp = rpc.addr().to_string();
        rpc.serve("iscsi.login", move |sim, req, responder| {
            let req: &LoginReq = req.downcast_ref().expect("LoginReq");
            sim.count(&comp, "iscsi.logins", 1);
            let resp: LoginResp = match t.borrow().get(&req.target) {
                Some(dev) => Ok(dev.capacity()),
                None => {
                    sim.count(&comp, "iscsi.login_failures", 1);
                    Err(IscsiError::NoSuchTarget)
                }
            };
            responder.reply(sim, Arc::new(resp), 64);
        });

        let t = targets.clone();
        let comp = rpc.addr().to_string();
        rpc.serve("iscsi.read", move |sim, req, responder| {
            let req: &ReadReq = req.downcast_ref().expect("ReadReq");
            sim.count(&comp, "iscsi.reads", 1);
            let dev = t.borrow().get(&req.target).cloned();
            match dev {
                None => {
                    responder.reply(sim, Arc::new(Err(IscsiError::NoSuchTarget) as ReadResp), 16)
                }
                Some(dev) => {
                    let comp = comp.clone();
                    dev.read(
                        sim,
                        req.offset,
                        req.len,
                        Box::new(move |sim, res| {
                            let bytes = res.as_ref().map_or(16, |d| d.len() as u64 + 16);
                            if let Ok(d) = &res {
                                sim.count(&comp, "iscsi.read_bytes", d.len() as u64);
                            }
                            let resp: ReadResp = res.map_err(IscsiError::Block);
                            responder.reply(sim, Arc::new(resp), bytes);
                        }),
                    );
                }
            }
        });

        let t = targets.clone();
        let comp = rpc.addr().to_string();
        rpc.serve("iscsi.write", move |sim, req, responder| {
            let req: &WriteReq = req.downcast_ref().expect("WriteReq");
            sim.count(&comp, "iscsi.writes", 1);
            let dev = t.borrow().get(&req.target).cloned();
            match dev {
                None => responder.reply(
                    sim,
                    Arc::new(Err(IscsiError::NoSuchTarget) as WriteResp),
                    16,
                ),
                Some(dev) => {
                    let len = req.data.len() as u64;
                    let comp = comp.clone();
                    dev.write(
                        sim,
                        req.offset,
                        req.data.clone(),
                        Box::new(move |sim, res| {
                            if res.is_ok() {
                                sim.count(&comp, "iscsi.write_bytes", len);
                            }
                            let resp: WriteResp = res.map_err(IscsiError::Block);
                            responder.reply(sim, Arc::new(resp), 16);
                        }),
                    );
                }
            }
        });

        IscsiServer { rpc, targets }
    }

    /// The server's network address.
    pub fn addr(&self) -> &Addr {
        self.rpc.addr()
    }

    /// Exposes `dev` as target `name` (replaces an existing target).
    pub fn expose(&self, name: impl Into<String>, dev: Rc<dyn BlockDevice>) {
        self.targets.borrow_mut().insert(name.into(), dev);
    }

    /// Withdraws a target; subsequent requests fail with
    /// [`IscsiError::NoSuchTarget`]. Returns whether it existed.
    pub fn unexpose(&self, name: &str) -> bool {
        self.targets.borrow_mut().remove(name).is_some()
    }

    /// Names of currently exposed targets, sorted.
    pub fn target_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.targets.borrow().keys().cloned().collect();
        v.sort();
        v
    }
}

/// An initiator-side session to one remote target.
#[derive(Clone)]
pub struct IscsiSession {
    rpc: RpcNode,
    server: Addr,
    target: String,
    capacity: u64,
    timeout: Duration,
}

impl fmt::Debug for IscsiSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IscsiSession")
            .field("server", &self.server)
            .field("target", &self.target)
            .finish()
    }
}

impl IscsiSession {
    /// Logs in to `target` at `server`, producing a session on success.
    ///
    /// The login is one RPC round trip; a real initiator performs a couple
    /// more (discovery, capacity), folded into the ClientLib's mount time.
    pub fn login(
        sim: &Sim,
        rpc: &RpcNode,
        server: &Addr,
        target: &str,
        timeout: Duration,
        cb: impl FnOnce(&Sim, Result<IscsiSession, IscsiError>) + 'static,
    ) {
        let rpc2 = rpc.clone();
        let server2 = server.clone();
        let target2 = target.to_owned();
        rpc.call::<LoginResp>(
            sim,
            server,
            "iscsi.login",
            Arc::new(LoginReq {
                target: target.to_owned(),
            }),
            64,
            timeout,
            move |sim, resp| {
                let session = match resp {
                    Err(e) => Err(IscsiError::Rpc(e)),
                    Ok(r) => match &*r {
                        Ok(capacity) => Ok(IscsiSession {
                            rpc: rpc2,
                            server: server2,
                            target: target2,
                            capacity: *capacity,
                            timeout,
                        }),
                        Err(e) => Err(e.clone()),
                    },
                };
                cb(sim, session);
            },
        );
    }

    /// Remote device capacity reported at login.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Target name.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// Server address.
    pub fn server(&self) -> &Addr {
        &self.server
    }

    /// Reads `len` bytes at `offset` from the remote target.
    pub fn read(
        &self,
        sim: &Sim,
        offset: u64,
        len: u64,
        cb: impl FnOnce(&Sim, Result<Vec<u8>, IscsiError>) + 'static,
    ) {
        self.rpc.call::<ReadResp>(
            sim,
            &self.server,
            "iscsi.read",
            Arc::new(ReadReq {
                target: self.target.clone(),
                offset,
                len,
            }),
            32,
            self.timeout,
            move |sim, resp| {
                let r = match resp {
                    Err(e) => Err(IscsiError::Rpc(e)),
                    Ok(r) => (*r).clone(),
                };
                cb(sim, r);
            },
        );
    }

    /// Writes `data` at `offset` on the remote target.
    pub fn write(
        &self,
        sim: &Sim,
        offset: u64,
        data: Vec<u8>,
        cb: impl FnOnce(&Sim, Result<(), IscsiError>) + 'static,
    ) {
        let bytes = data.len() as u64 + 32;
        self.rpc.call::<WriteResp>(
            sim,
            &self.server,
            "iscsi.write",
            Arc::new(WriteReq {
                target: self.target.clone(),
                offset,
                data,
            }),
            bytes,
            self.timeout,
            move |sim, resp| {
                let r = match resp {
                    Err(e) => Err(IscsiError::Rpc(e)),
                    Ok(r) => (*r).clone(),
                };
                cb(sim, r);
            },
        );
    }
}

/// Implements [`BlockDevice`] over a session, so remote UStore storage can
/// be used anywhere a local device is expected (§IV-D: "access UStore just
/// like accessing local disks").
impl BlockDevice for IscsiSession {
    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn read(&self, sim: &Sim, offset: u64, len: u64, cb: crate::blockdev::ReadCb) {
        IscsiSession::read(self, sim, offset, len, move |sim, r| {
            cb(sim, r.map_err(|e| BlockError::Unavailable(e.to_string())));
        });
    }

    fn write(&self, sim: &Sim, offset: u64, data: Vec<u8>, cb: crate::blockdev::WriteCb) {
        IscsiSession::write(self, sim, offset, data, move |sim, r| {
            cb(sim, r.map_err(|e| BlockError::Unavailable(e.to_string())));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockdev::MemDevice;
    use crate::network::{NetConfig, Network};
    use std::cell::Cell;

    fn setup() -> (Sim, Network, IscsiServer, RpcNode) {
        let sim = Sim::new(4);
        let net = Network::new(NetConfig {
            jitter: Duration::ZERO,
            ..NetConfig::default()
        });
        let server_rpc = RpcNode::new(&net, Addr::new("endpoint-0"));
        let server = IscsiServer::new(server_rpc);
        let client = RpcNode::new(&net, Addr::new("client-0"));
        (sim, net, server, client)
    }

    fn timeout() -> Duration {
        Duration::from_secs(5)
    }

    #[test]
    fn login_read_write_roundtrip() {
        let (sim, _net, server, client) = setup();
        server.expose(
            "unit0/disk3/space1",
            Rc::new(MemDevice::new(1 << 20, Duration::ZERO)),
        );
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        IscsiSession::login(
            &sim,
            &client,
            &Addr::new("endpoint-0"),
            "unit0/disk3/space1",
            timeout(),
            move |sim, sess| {
                let sess = sess.expect("login");
                assert_eq!(sess.capacity(), 1 << 20);
                let s2 = sess.clone();
                sess.write(sim, 0, b"cold data".to_vec(), move |sim, r| {
                    r.expect("write");
                    let d = d.clone();
                    s2.read(sim, 0, 9, move |_, r| {
                        assert_eq!(r.expect("read"), b"cold data".to_vec());
                        d.set(true);
                    });
                });
            },
        );
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn login_to_missing_target_fails() {
        let (sim, _net, _server, client) = setup();
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        IscsiSession::login(
            &sim,
            &client,
            &Addr::new("endpoint-0"),
            "nope",
            timeout(),
            move |_, sess| {
                assert_eq!(sess.unwrap_err(), IscsiError::NoSuchTarget);
                g.set(true);
            },
        );
        sim.run();
        assert!(got.get());
    }

    #[test]
    fn unexpose_breaks_session() {
        let (sim, _net, server, client) = setup();
        server.expose("t", Rc::new(MemDevice::new(4096, Duration::ZERO)));
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        let server2 = Rc::new(server);
        let s_ref = server2.clone();
        IscsiSession::login(
            &sim,
            &client,
            &Addr::new("endpoint-0"),
            "t",
            timeout(),
            move |sim, sess| {
                let sess = sess.expect("login");
                assert!(s_ref.unexpose("t"));
                sess.read(sim, 0, 16, move |_, r| {
                    assert_eq!(r.unwrap_err(), IscsiError::NoSuchTarget);
                    g.set(true);
                });
            },
        );
        sim.run();
        assert!(got.get());
    }

    #[test]
    fn dead_server_times_out() {
        let (sim, net, server, client) = setup();
        server.expose("t", Rc::new(MemDevice::new(4096, Duration::ZERO)));
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        IscsiSession::login(
            &sim,
            &client,
            &Addr::new("endpoint-0"),
            "t",
            timeout(),
            move |sim, sess| {
                let sess = sess.expect("login");
                sess.read(sim, 0, 16, move |_, r| {
                    assert_eq!(r.unwrap_err(), IscsiError::Rpc(RpcError::Timeout));
                    g.set(true);
                });
            },
        );
        // Kill the endpoint right away; the read will time out.
        let addr = Addr::new("endpoint-0");
        sim.schedule_in(Duration::from_micros(300), move |_| {
            net.set_down(&addr);
        });
        sim.run();
        assert!(got.get());
    }

    #[test]
    fn out_of_range_maps_to_block_error() {
        let (sim, _net, server, client) = setup();
        server.expose("t", Rc::new(MemDevice::new(100, Duration::ZERO)));
        IscsiSession::login(
            &sim,
            &client,
            &Addr::new("endpoint-0"),
            "t",
            timeout(),
            move |sim, sess| {
                let sess = sess.expect("login");
                sess.read(sim, 90, 20, |_, r| {
                    assert_eq!(r.unwrap_err(), IscsiError::Block(BlockError::OutOfRange));
                });
            },
        );
        sim.run();
    }

    #[test]
    fn target_names_sorted() {
        let (_sim, _net, server, _client) = setup();
        server.expose("b", Rc::new(MemDevice::new(1, Duration::ZERO)));
        server.expose("a", Rc::new(MemDevice::new(1, Duration::ZERO)));
        assert_eq!(
            server.target_names(),
            vec!["a".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn session_as_block_device() {
        let (sim, _net, server, client) = setup();
        server.expose("t", Rc::new(MemDevice::new(4096, Duration::ZERO)));
        IscsiSession::login(
            &sim,
            &client,
            &Addr::new("endpoint-0"),
            "t",
            timeout(),
            move |sim, sess| {
                let dev: Rc<dyn BlockDevice> = Rc::new(sess.expect("login"));
                let dev2 = dev.clone();
                dev.write(
                    sim,
                    0,
                    vec![5u8; 8],
                    Box::new(move |sim, r| {
                        r.expect("write");
                        dev2.read(
                            sim,
                            0,
                            8,
                            Box::new(|_, r| {
                                assert_eq!(r.expect("read"), vec![5u8; 8]);
                            }),
                        );
                    }),
                );
            },
        );
        sim.run();
    }
}
