//! Request/response RPC over the simulated network.
//!
//! The network itself is lossy (like UDP); [`RpcNode`] adds correlation ids
//! and per-call timeouts so callers observe either a typed response or a
//! [`RpcError::Timeout`]. This is the transport used by heartbeats, the
//! Master↔Controller/EndPoint command channels, the coordination service
//! and the iSCSI layer.

use std::any::Any;
use std::cell::RefCell;

use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use ustore_sim::{CounterHandle, EventId, FastMap, HistogramHandle, ReqStamp, Sim, SimTime, Stage};

use crate::network::{Addr, Envelope, Network, Payload};

/// RPC failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// No response within the deadline (lost message, dead peer, partition).
    Timeout,
    /// The peer answered with an unexpected payload type.
    BadType,
    /// The peer has no handler for the method.
    NoSuchMethod,
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Timeout => write!(f, "rpc timed out"),
            RpcError::BadType => write!(f, "rpc response had unexpected type"),
            RpcError::NoSuchMethod => write!(f, "rpc method not served by peer"),
        }
    }
}

impl std::error::Error for RpcError {}

enum RpcMsg {
    Request {
        id: u64,
        method: String,
        body: Payload,
        /// Request-lifecycle stamp riding this hop (no wire bytes: the
        /// simulated message size is unchanged, so tracing cannot perturb
        /// network timing or telemetry).
        stamp: Option<ReqStamp>,
    },
    Response {
        id: u64,
        body: Result<Payload, RpcError>,
        stamp: Option<ReqStamp>,
    },
}

type ResponseCb = Box<dyn FnOnce(&Sim, Result<Payload, RpcError>)>;

struct Pending {
    cb: ResponseCb,
    timeout_event: EventId,
    started: SimTime,
}

type Handler = Rc<dyn Fn(&Sim, Payload, Responder)>;

/// Per-endpoint metric handles, resolved once (lazily: [`RpcNode::new`]
/// has no simulator handle) so per-call accounting neither formats the
/// address nor hashes metric names.
#[derive(Debug, Clone)]
struct RpcMetrics {
    calls: CounterHandle,
    timeouts: CounterHandle,
    round_trips: CounterHandle,
    errors: CounterHandle,
    rtt: HistogramHandle,
}

struct Inner {
    next_id: u64,
    pending: FastMap<u64, Pending>,
    handlers: FastMap<String, Handler>,
    metrics: Option<RpcMetrics>,
}

/// An RPC endpoint bound to one network address.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use ustore_sim::Sim;
/// use ustore_net::{Addr, NetConfig, Network, RpcNode};
///
/// let sim = Sim::new(1);
/// let net = Network::new(NetConfig::default());
/// let server = RpcNode::new(&net, Addr::new("server"));
/// let client = RpcNode::new(&net, Addr::new("client"));
/// server.serve("add1", |sim, req, responder| {
///     let n: &u32 = req.downcast_ref().expect("u32 request");
///     responder.reply(sim, Arc::new(n + 1), 8);
/// });
/// client.call::<u32>(
///     &sim,
///     &Addr::new("server"),
///     "add1",
///     Arc::new(41u32),
///     8,
///     Duration::from_secs(1),
///     |_, resp| assert_eq!(*resp.expect("reply"), 42),
/// );
/// sim.run();
/// ```
#[derive(Clone)]
pub struct RpcNode {
    net: Network,
    addr: Addr,
    inner: Rc<RefCell<Inner>>,
}

impl fmt::Debug for RpcNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RpcNode")
            .field("addr", &self.addr)
            .field("pending", &self.inner.borrow().pending.len())
            .finish()
    }
}

/// Capability to answer one request.
pub struct Responder {
    net: Network,
    from: Addr,
    to: Addr,
    id: u64,
    /// Trace stamp the request carried; travels back on the response.
    stamp: Option<ReqStamp>,
}

impl fmt::Debug for Responder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Responder").field("id", &self.id).finish()
    }
}

impl Responder {
    /// The address of the requester this responder answers to.
    pub fn peer(&self) -> &Addr {
        &self.to
    }

    /// Sends the response payload (with `bytes` wire size).
    pub fn reply(self, sim: &Sim, body: Payload, bytes: u64) {
        if self.stamp.is_some() {
            // Whatever server-side time since the last mark was not
            // explicitly absorbed (device stages) counts as transfer.
            sim.reqtracer().mark(self.stamp, Stage::Transfer, sim.now());
        }
        let msg = RpcMsg::Response {
            id: self.id,
            body: Ok(body),
            stamp: self.stamp,
        };
        self.net
            .send(sim, &self.from, &self.to, bytes + 48, Arc::new(msg));
    }

    /// Sends an error response.
    pub fn reply_err(self, sim: &Sim, err: RpcError) {
        let msg = RpcMsg::Response {
            id: self.id,
            body: Err(err),
            stamp: self.stamp,
        };
        self.net.send(sim, &self.from, &self.to, 48, Arc::new(msg));
    }
}

impl RpcNode {
    /// Creates an endpoint at `addr`, registering and binding it on `net`.
    pub fn new(net: &Network, addr: Addr) -> Self {
        net.register(&addr);
        let node = RpcNode {
            net: net.clone(),
            addr: addr.clone(),
            inner: Rc::new(RefCell::new(Inner {
                next_id: 0,
                pending: FastMap::default(),
                handlers: FastMap::default(),
                metrics: None,
            })),
        };
        let n = node.clone();
        net.bind(&addr, move |sim, env| n.on_message(sim, env));
        // The handler map is a cycle anchor independent of the network
        // bind: served closures capture component clones which hold this
        // RpcNode back. Register a weak breaker so `Network::teardown`
        // clears the map (and any orphaned pending callbacks) without the
        // registry itself keeping the endpoint alive.
        let weak = Rc::downgrade(&node.inner);
        net.on_teardown(move || {
            if let Some(inner) = weak.upgrade() {
                let (handlers, pending) = {
                    let mut i = inner.borrow_mut();
                    (
                        std::mem::take(&mut i.handlers),
                        std::mem::take(&mut i.pending),
                    )
                };
                drop(handlers);
                drop(pending);
            }
        });
        node
    }

    /// This endpoint's address.
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Registers a handler for `method` (replacing any previous one).
    pub fn serve(&self, method: &str, handler: impl Fn(&Sim, Payload, Responder) + 'static) {
        self.inner
            .borrow_mut()
            .handlers
            .insert(method.to_owned(), Rc::new(handler));
    }

    /// Issues a call; `cb` receives the typed response or an error.
    pub fn call<Resp: Any + Send + Sync>(
        &self,
        sim: &Sim,
        to: &Addr,
        method: &str,
        body: Payload,
        bytes: u64,
        timeout: Duration,
        cb: impl FnOnce(&Sim, Result<Arc<Resp>, RpcError>) + 'static,
    ) {
        let id = {
            let mut i = self.inner.borrow_mut();
            let id = i.next_id;
            i.next_id += 1;
            id
        };
        let typed_cb: ResponseCb = Box::new(move |sim, res| {
            let typed = res.and_then(|body| body.downcast::<Resp>().map_err(|_| RpcError::BadType));
            cb(sim, typed);
        });
        let timeouts = self.with_metrics(sim, |m| {
            m.calls.inc();
            m.timeouts.clone()
        });
        let inner = self.inner.clone();
        let timeout_event = sim.schedule_in(timeout, move |sim| {
            // Drop the borrow before invoking the callback: it may issue a
            // retry through this same endpoint.
            let pending = inner.borrow_mut().pending.remove(&id);
            if let Some(p) = pending {
                timeouts.inc();
                (p.cb)(sim, Err(RpcError::Timeout));
            }
        });
        self.inner.borrow_mut().pending.insert(
            id,
            Pending {
                cb: typed_cb,
                timeout_event,
                started: sim.now(),
            },
        );
        let msg = RpcMsg::Request {
            id,
            method: method.to_owned(),
            body,
            stamp: sim.current_stamp(),
        };
        self.net
            .send(sim, &self.addr, to, bytes + 48, Arc::new(msg));
    }

    /// Runs `f` with the endpoint's metric handles, resolving the address
    /// label exactly once over the node's lifetime. Borrowing (instead of
    /// cloning the handle set out) keeps per-call accounting to plain
    /// counter bumps.
    fn with_metrics<R>(&self, sim: &Sim, f: impl FnOnce(&RpcMetrics) -> R) -> R {
        let mut i = self.inner.borrow_mut();
        if i.metrics.is_none() {
            let c = self.addr.to_string();
            i.metrics = Some(RpcMetrics {
                calls: sim.counter(&c, "rpc.calls"),
                timeouts: sim.counter(&c, "rpc.timeouts"),
                round_trips: sim.counter(&c, "rpc.round_trips"),
                errors: sim.counter(&c, "rpc.errors"),
                rtt: sim.histogram(&c, "rpc.rtt_ns"),
            });
        }
        f(i.metrics.as_ref().expect("metrics just initialized"))
    }

    fn on_message(&self, sim: &Sim, env: Envelope) {
        let Some(msg) = env.payload.downcast_ref::<RpcMsg>() else {
            return; // not RPC traffic
        };
        match msg {
            RpcMsg::Request {
                id,
                method,
                body,
                stamp,
            } => {
                let handler = self.inner.borrow().handlers.get(method).cloned();
                let responder = Responder {
                    net: self.net.clone(),
                    from: self.addr.clone(),
                    to: env.from.clone(),
                    id: *id,
                    stamp: *stamp,
                };
                match handler {
                    Some(h) => {
                        if let Some(stamp) = *stamp {
                            // Close the request hop, then expose the stamp
                            // to the synchronous handler chain (iSCSI →
                            // exposed space → fabric → disk submit).
                            sim.reqtracer()
                                .mark(Some(stamp), Stage::NetTransit, sim.now());
                            sim.set_current_stamp(Some(stamp));
                            h(sim, body.clone(), responder);
                            sim.set_current_stamp(None);
                        } else {
                            h(sim, body.clone(), responder);
                        }
                    }
                    None => responder.reply_err(sim, RpcError::NoSuchMethod),
                }
            }
            RpcMsg::Response { id, body, stamp } => {
                let pending = self.inner.borrow_mut().pending.remove(id);
                if let Some(p) = pending {
                    sim.cancel(p.timeout_event);
                    if stamp.is_some() {
                        // Close the response hop. Late responses (timeout
                        // already fired) never reach here, and the stamp's
                        // attempt guard drops them anyway.
                        sim.reqtracer().mark(*stamp, Stage::NetTransit, sim.now());
                    }
                    self.with_metrics(sim, |m| {
                        m.round_trips.inc();
                        m.rtt.observe_duration(sim.now().duration_since(p.started));
                        if body.is_err() {
                            m.errors.inc();
                        }
                    });
                    (p.cb)(sim, body.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetConfig;
    use std::cell::Cell;

    fn setup() -> (Sim, Network, RpcNode, RpcNode) {
        let sim = Sim::new(2);
        let net = Network::new(NetConfig {
            jitter: Duration::ZERO,
            ..NetConfig::default()
        });
        let server = RpcNode::new(&net, Addr::new("server"));
        let client = RpcNode::new(&net, Addr::new("client"));
        (sim, net, server, client)
    }

    #[test]
    fn request_response_roundtrip() {
        let (sim, _net, server, client) = setup();
        server.serve("echo", |sim, req, r| {
            let s: &String = req.downcast_ref().expect("string");
            r.reply(sim, Arc::new(s.clone()), s.len() as u64);
        });
        let ok = Rc::new(Cell::new(false));
        let o = ok.clone();
        client.call::<String>(
            &sim,
            &Addr::new("server"),
            "echo",
            Arc::new("ping".to_string()),
            4,
            Duration::from_secs(1),
            move |_, resp| {
                assert_eq!(*resp.expect("echo"), "ping");
                o.set(true);
            },
        );
        sim.run();
        assert!(ok.get());
    }

    #[test]
    fn timeout_on_dead_server() {
        let (sim, net, _server, client) = setup();
        net.set_down(&Addr::new("server"));
        let got = Rc::new(Cell::new(None));
        let g = got.clone();
        client.call::<()>(
            &sim,
            &Addr::new("server"),
            "x",
            Arc::new(()),
            4,
            Duration::from_millis(500),
            move |_, resp| g.set(Some(resp.unwrap_err())),
        );
        sim.run();
        assert_eq!(got.get(), Some(RpcError::Timeout));
        assert_eq!(sim.now().as_secs_f64(), 0.5);
    }

    #[test]
    fn no_such_method() {
        let (sim, _net, _server, client) = setup();
        let got = Rc::new(Cell::new(None));
        let g = got.clone();
        client.call::<()>(
            &sim,
            &Addr::new("server"),
            "nope",
            Arc::new(()),
            4,
            Duration::from_secs(1),
            move |_, resp| g.set(Some(resp.unwrap_err())),
        );
        sim.run();
        assert_eq!(got.get(), Some(RpcError::NoSuchMethod));
    }

    #[test]
    fn bad_response_type() {
        let (sim, _net, server, client) = setup();
        server.serve("m", |sim, _req, r| r.reply(sim, Arc::new(1u8), 1));
        let got = Rc::new(Cell::new(None));
        let g = got.clone();
        client.call::<String>(
            &sim,
            &Addr::new("server"),
            "m",
            Arc::new(()),
            4,
            Duration::from_secs(1),
            move |_, resp| g.set(Some(resp.unwrap_err())),
        );
        sim.run();
        assert_eq!(got.get(), Some(RpcError::BadType));
    }

    #[test]
    fn concurrent_calls_are_correlated() {
        let (sim, _net, server, client) = setup();
        server.serve("double", |sim, req, r| {
            let n: u32 = *req.downcast_ref::<u32>().expect("u32");
            r.reply(sim, Arc::new(n * 2), 4);
        });
        let sum = Rc::new(Cell::new(0u32));
        for n in 1..=5u32 {
            let s = sum.clone();
            client.call::<u32>(
                &sim,
                &Addr::new("server"),
                "double",
                Arc::new(n),
                4,
                Duration::from_secs(1),
                move |_, resp| s.set(s.get() + *resp.expect("doubled")),
            );
        }
        sim.run();
        assert_eq!(sum.get(), 2 * (1 + 2 + 3 + 4 + 5));
    }

    #[test]
    fn rpc_metrics_count_round_trips_and_timeouts() {
        let (sim, net, server, client) = setup();
        server.serve("echo", |sim, _req, r| r.reply(sim, Arc::new(()), 1));
        client.call::<()>(
            &sim,
            &Addr::new("server"),
            "echo",
            Arc::new(()),
            4,
            Duration::from_secs(1),
            |_, resp| {
                resp.expect("echo");
            },
        );
        sim.run();
        net.set_down(&Addr::new("server"));
        client.call::<()>(
            &sim,
            &Addr::new("server"),
            "echo",
            Arc::new(()),
            4,
            Duration::from_millis(100),
            |_, resp| {
                resp.unwrap_err();
            },
        );
        sim.run();
        let m = sim.metrics_snapshot();
        assert_eq!(m.counter("client", "rpc.calls"), 2);
        assert_eq!(m.counter("client", "rpc.round_trips"), 1);
        assert_eq!(m.counter("client", "rpc.timeouts"), 1);
        let h = m.histogram("client", "rpc.rtt_ns").expect("rtt histogram");
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn late_response_after_timeout_is_ignored() {
        let (sim, net, server, client) = setup();
        // Server replies, but we partition so the response path is blocked
        // until after the timeout; then heal. The response arrives while no
        // pending call exists — must not panic or double-call.
        server.serve("slow", move |sim, _req, r| {
            r.reply(sim, Arc::new(7u32), 4);
        });
        net.block(&Addr::new("server"), &Addr::new("client"));
        let outcomes = Rc::new(RefCell::new(Vec::new()));
        let o = outcomes.clone();
        client.call::<u32>(
            &sim,
            &Addr::new("server"),
            "slow",
            Arc::new(()),
            4,
            Duration::from_millis(10),
            move |_, resp| o.borrow_mut().push(resp.map(|v| *v)),
        );
        sim.run();
        assert_eq!(*outcomes.borrow(), vec![Err(RpcError::Timeout)]);
    }
}
