//! The concurrent front door: many client threads, one scheduler.
//!
//! Clients hand requests to the engine over an mpsc channel and get
//! their responses back on a private reply channel; the scheduler loop
//! runs on the *calling* thread, so all scheduling state stays
//! single-threaded and the client threads do nothing but send and
//! receive. Time is injected by the caller (`now_ns`), keeping this
//! module free of clock reads — benches pass a real clock, tests pass a
//! counter.
//!
//! Determinism note: with concurrent clients the *arrival interleaving*
//! is decided by the OS scheduler, so run-to-run identity is not claimed
//! here — that is what [`ServeEngine::run_trace`] with a fixed trace is
//! for. What this mode does guarantee is the same accounting invariant:
//! every submitted request produces exactly one terminal response,
//! delivered to the client that sent it.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Duration;

use crate::{BatchDecoder, ServeEngine, ServeRequest, ServeResponse};

/// One request in flight from a client, with its reply route.
struct ClientMsg {
    req: ServeRequest,
    reply: mpsc::Sender<ServeResponse>,
}

/// Runs `engine` against concurrent clients: client `i` sends every
/// request in `clients[i]` (ids must be unique across all clients)
/// before it waits for any response, then waits for one response per
/// request. So the clients are not closed-loop: every client's whole
/// list can reach the queue at once, and whichever client's sends land
/// last meets a full queue first. `serve_bench`'s real phase measures
/// that burst. Returns each client's responses in delivery order.
///
/// `now_ns` is polled once per scheduler iteration to advance the
/// engine's virtual clock; for wall-clock latency numbers pass a real
/// monotonic clock and set the engine's virtual step/admit costs to
/// zero so time flows only from the caller.
pub fn serve_concurrent<D: BatchDecoder>(
    engine: &mut ServeEngine<D>,
    clients: Vec<Vec<ServeRequest>>,
    now_ns: &(dyn Fn() -> u64 + Sync),
) -> Vec<Vec<ServeResponse>> {
    let (tx, rx) = mpsc::channel::<ClientMsg>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|reqs| {
                let tx = tx.clone();
                scope.spawn(move || {
                    let (reply_tx, reply_rx) = mpsc::channel::<ServeResponse>();
                    let expected = reqs.len();
                    for req in reqs {
                        let msg = ClientMsg {
                            req,
                            reply: reply_tx.clone(),
                        };
                        tx.send(msg).expect("scheduler loop outlives clients");
                    }
                    drop(tx);
                    drop(reply_tx);
                    let mut got = Vec::with_capacity(expected);
                    for _ in 0..expected {
                        got.push(reply_rx.recv().expect("one response per request"));
                    }
                    got
                })
            })
            .collect();
        drop(tx);

        // The scheduler loop: route incoming requests, tick, deliver.
        let mut routes: BTreeMap<u64, mpsc::Sender<ServeResponse>> = BTreeMap::new();
        let mut open = true;
        loop {
            engine.advance_to(now_ns());
            loop {
                match rx.try_recv() {
                    Ok(msg) => {
                        let prev = routes.insert(msg.req.id, msg.reply);
                        assert!(prev.is_none(), "duplicate request id {}", msg.req.id);
                        engine.submit(msg.req);
                    }
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            }
            // A poisoned engine has already drained every request with a
            // typed R005 response; the delivery loop below still routes
            // them, and `is_idle` then ends the session cleanly.
            let _ = engine.tick();
            for resp in engine.drain_responses() {
                let route = routes.remove(&resp.id).expect("response has a route");
                route.send(resp).expect("client waits for its responses");
            }
            if engine.is_idle() {
                if !open {
                    break;
                }
                // Nothing to decode: block briefly for the next arrival
                // instead of spinning.
                match rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(msg) => {
                        engine.advance_to(now_ns());
                        let prev = routes.insert(msg.req.id, msg.reply);
                        assert!(prev.is_none(), "duplicate request id {}", msg.req.id);
                        engine.submit(msg.req);
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => open = false,
                }
            }
        }
        assert!(routes.is_empty(), "undelivered responses at shutdown");

        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Outcome, ScriptedDecoder, ServeConfig};
    use datavist5::data::Task;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn concurrent_clients_each_get_all_their_responses() {
        let dec = ScriptedDecoder::new(2, 8, 1, |src| vec![3; src[0] as usize]);
        let mut cfg = ServeConfig::new(16, 16, 1);
        // Time flows only from the injected counter below.
        cfg.step_cost_ns = 0;
        cfg.admit_cost_ns = 0;
        let mut engine = ServeEngine::new(dec, cfg);

        let clients: Vec<Vec<ServeRequest>> = (0..3)
            .map(|c| {
                (0..4)
                    .map(|i| ServeRequest::new(c * 100 + i, Task::ALL[c as usize % 4], vec![2]))
                    .collect()
            })
            .collect();

        let fake_now = AtomicU64::new(0);
        let now = move || fake_now.fetch_add(1_000, Ordering::SeqCst);
        let per_client = serve_concurrent(&mut engine, clients, &now);

        assert_eq!(per_client.len(), 3);
        for (c, responses) in per_client.iter().enumerate() {
            assert_eq!(responses.len(), 4, "client {c} got all responses");
            for r in responses {
                assert_eq!(r.id / 100, c as u64, "response routed to its sender");
                assert_eq!(r.outcome, Outcome::Completed);
                assert_eq!(r.tokens, vec![3, 3]);
            }
        }
        engine.shutdown();
        let report = engine.into_report();
        assert!(report.accounted());
        assert_eq!(report.arrivals, 12);
        assert_eq!(report.completed, 12);
    }
}
