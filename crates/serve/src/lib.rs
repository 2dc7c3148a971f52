//! # serve — the model-serving front door over the continuous batcher
//!
//! The request front door for all four DataVisT5 tasks (text-to-vis,
//! vis-to-text, FeVisQA, table-to-text): a bounded admission queue, a
//! deterministic scheduler feeding the continuous batcher's free slots
//! mid-flight, per-request deadlines with typed rejections, and
//! backpressure at the front door. See DESIGN.md § "Serving engine".
//!
//! Layer map:
//!
//! * [`nn::engine`] — the scheduler itself, which eval's batched decoders
//!   share: admission queue, virtual clock, tick loop, typed
//!   [`Rejection`]s (`R001`–`R005`), the [`ServeReport`], and typed
//!   [`EngineError`]s that poison the engine instead of panicking.
//! * this crate's root — the engine's names for [`Task`]-tagged requests;
//!   [`ServeRequest::from_task`] builds a request through the paper's
//!   unified encoding (schema filtration included).
//! * [`front`] — the concurrent client front door (threads only send
//!   and receive; scheduling stays single-threaded).
//! * [`testing`] — the scripted decoder the scheduler test suites run
//!   against.
//!
//! The engine never reads a wall clock: time is injected (virtual in
//! traces and tests, real only in the bench crate), which is what makes
//! the double-run fingerprint contract possible.

pub mod front;
pub mod testing;

use datavist5::data::Task;

pub use front::serve_concurrent;
pub use nn::engine::{
    BatchDecoder, EngineConfig as ServeConfig, EngineError, Outcome, Priority, Rejection,
    TaskTally, NO_DEADLINE,
};
pub use nn::prefix_cache::{prefix_hash, CacheStats, PrefixCache, PrefixKv};
pub use testing::ScriptedDecoder;

/// The serving scheduler over a [`BatchDecoder`], for task-tagged
/// requests.
pub type ServeEngine<D> = nn::engine::Engine<D, Task>;
/// One request as the scheduler sees it.
pub type ServeRequest = nn::engine::Request<Task>;
/// The engine's answer for one request.
pub type ServeResponse = nn::engine::Response<Task>;
/// Everything a finished run produced, in deterministic order.
pub type ServeReport = nn::engine::Report<Task>;
/// One admission, as logged.
pub type AdmissionRecord = nn::engine::AdmissionRecord<Task>;

#[cfg(test)]
mod tests {
    use super::*;
    use datavist5::data::TaskRequest;
    use tokenizer::WordTokenizer;

    const EOS: u32 = 1;

    fn engine(slots: usize, queue_cap: usize) -> ServeEngine<ScriptedDecoder> {
        // Script: request emits `src[0]` tokens (vocab id 5), then EOS.
        let dec = ScriptedDecoder::new(slots, 8, EOS, |src| {
            vec![5; src.first().copied().unwrap_or(0) as usize]
        });
        ServeEngine::new(dec, ServeConfig::new(queue_cap, 16, EOS))
    }

    fn req(id: u64, len: u32) -> ServeRequest {
        ServeRequest::new(id, Task::TextToVis, vec![len])
    }

    #[test]
    fn single_request_completes_with_scripted_tokens() {
        let mut e = engine(2, 4);
        e.submit(req(0, 3));
        e.run_trace(&[]).unwrap();
        let report = e.into_report();
        assert!(report.accounted());
        assert_eq!(report.responses[0].outcome, Outcome::Completed);
        assert_eq!(report.responses[0].tokens, vec![5, 5, 5]);
        assert_eq!(report.admission_log.len(), 1);
    }

    #[test]
    fn queue_overflow_rejects_with_r001() {
        let mut e = engine(1, 1);
        // Slot takes one, queue takes one, third bounces.
        e.submit(req(0, 5));
        e.tick().unwrap(); // admits request 0 into the slot
        e.submit(req(1, 5));
        e.submit(req(2, 5));
        let resp: Vec<_> = e.drain_responses();
        let bounced = resp.iter().find(|r| r.id == 2).expect("response for #2");
        assert_eq!(bounced.outcome, Outcome::Rejected(Rejection::QueueFull));
        e.run_trace(&[]).unwrap();
        let report = e.into_report();
        assert!(report.accounted());
        assert_eq!(report.rejected["queue-full"], 1);
        assert_eq!(report.completed, 2);
    }

    #[test]
    fn max_out_caps_runaway_decodes() {
        let mut e = engine(1, 2);
        e.submit(req(0, 100)); // wants 100 tokens, cap is 16
        e.run_trace(&[]).unwrap();
        let report = e.into_report();
        assert_eq!(report.responses[0].tokens.len(), 16);
        assert_eq!(report.responses[0].outcome, Outcome::Completed);
    }

    #[test]
    fn fingerprint_is_stable_across_runs() {
        let trace: Vec<(u64, ServeRequest)> = (0..6)
            .map(|i| (i * 500_000, req(i, (i % 3) as u32 + 1)))
            .collect();
        let run = || {
            let mut e = engine(2, 3);
            e.run_trace(&trace).unwrap();
            e.into_report().fingerprint()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn from_task_runs_filtration_and_appends_eos() {
        use vql::schema::{DbSchema, TableSchema};
        let schema = DbSchema::new(
            "g",
            vec![
                TableSchema::new("artist", vec!["country".into()]),
                TableSchema::new("exhibit", vec!["theme".into()]),
            ],
        );
        let task = TaskRequest::TextToVis {
            question: "bar chart of artist country".into(),
            schema,
        };
        let tok = WordTokenizer::fit([task.input_text().as_str()], 1);
        let req = ServeRequest::from_task(3, &task, &tok);
        assert_eq!(req.task, Task::TextToVis);
        assert_eq!(req.src.last(), Some(&tokenizer::special::EOS));
        // Filtration ran: the unreferenced table is absent, so the
        // encoded input is shorter than the unfiltered text would be.
        let text = task.input_text();
        assert!(!text.contains("theme"));
        // The request's admitted tokens hash to the task's cache key:
        // core-side key computation and serve-side admission agree on
        // what "the standardized input" is.
        assert_eq!(nn::prefix_hash(&req.src), task.cache_key(&tok));
    }
}
