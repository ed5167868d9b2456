//! The load generators: a closed loop (one thread keeping a fixed
//! number of requests in flight) and an open loop (one submitting
//! thread on a schedule, one collecting thread), both against either
//! server, both checking every response against the oracle.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use flexiq_serve::{GenTicket, ServeError, Ticket};

use crate::metrics::Fold;
use crate::rng::Rng;
use crate::spec;
use crate::trace::Tracer;
use crate::workload::{Deployment, Oracle, Serving};

/// What a request asks for: a dataset input and, for generation, a
/// token budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ask {
    pub idx: usize,
    pub budget: usize,
}

/// A served answer, as the server measured it.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub level: usize,
    /// Admission → dispatch.
    pub queue_s: f64,
    /// Admission → last output.
    pub latency_s: f64,
    /// Admission → first output; the whole latency for one-shot.
    pub ttft_s: f64,
    /// Time per output once on the model: dispatch → answer for
    /// one-shot; `decode_time / (tokens − 1)` for generation.
    pub per_output_s: f64,
    /// Outputs produced: 1, or the generated tokens.
    pub outputs: usize,
    /// Whether the output equals the oracle's, bit for bit.
    pub oracle_ok: bool,
    /// Answers agreeing with the f32 model's, of how many compared.
    pub agree: usize,
    pub compared: usize,
}

/// How a request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Answered(Answer),
    /// Admission queue full.
    Rejected,
    /// Shed by the brownout ladder.
    Shed,
    /// Deadline passed before a worker picked it up.
    Expired,
    /// Anything else: execution failed, the reply was lost, the server
    /// was draining. Never expected.
    Broken(String),
}

/// One attempted request.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub ask: Ask,
    /// When the request was due, seconds since the run's start.
    pub due_s: f64,
    /// How late the generator submitted it.
    pub lateness_s: f64,
    /// Time spent inside `submit`.
    pub submit_s: f64,
    /// Whether the request counts toward the latency percentiles: every
    /// request of a closed loop; in the open loop those due in a calm
    /// phase. Under the bursts the median answered request sits
    /// somewhere up the queue's ramp to the deadline, and where is
    /// bistable; the bursts are read through attainment and goodput.
    pub steady: bool,
    pub outcome: Outcome,
}

impl Record {
    /// The answer, if the request got a correct one.
    pub fn good(&self) -> Option<&Answer> {
        match &self.outcome {
            Outcome::Answered(a) if a.oracle_ok => Some(a),
            _ => None,
        }
    }

    /// The correct answer with its latency and its first output from
    /// when the request was due: generator lateness plus the
    /// server-measured times. `None` when the request was not answered
    /// correctly, so that it misses every limit.
    pub fn from_due_s(&self) -> Option<(&Answer, f64, f64)> {
        self.good()
            .map(|a| (a, self.lateness_s + a.latency_s, self.lateness_s + a.ttft_s))
    }

    /// Whether a correct answer arrived within `limit_s` of due time.
    pub fn within(&self, limit_s: f64) -> bool {
        self.from_due_s()
            .is_some_and(|(_, latency, _)| latency <= limit_s)
    }
}

fn refusal(e: ServeError) -> Outcome {
    match e {
        ServeError::QueueFull { .. } => Outcome::Rejected,
        ServeError::Shedding => Outcome::Shed,
        ServeError::DeadlineExpired => Outcome::Expired,
        other => Outcome::Broken(other.to_string()),
    }
}

/// A submitted request awaiting its answer.
pub enum Pending {
    OneShot(Ticket),
    Decode(GenTicket),
}

/// Longest a generator waits on one ticket before calling it hung.
const HUNG_AFTER: Duration = Duration::from_secs(20);

/// The two calls the generators make, against either server.
pub struct Target<'a> {
    pub serving: &'a Serving,
    pub oracle: &'a Oracle,
}

impl<'a> Target<'a> {
    pub fn new(dep: &'a Deployment, oracle: &'a Oracle) -> Target<'a> {
        Target {
            serving: &dep.serving,
            oracle,
        }
    }

    pub fn submit(&self, ask: Ask) -> Result<Pending, ServeError> {
        let input = self.oracle.dataset.inputs[ask.idx].clone();
        match self.serving {
            Serving::OneShot(s) => s.submit(input).map(Pending::OneShot),
            Serving::Decode(s) => s.submit_bounded(input, ask.budget).map(Pending::Decode),
        }
    }

    /// Blocks for the outcome and checks it against the oracle.
    pub fn wait(&self, pending: Pending, ask: Ask) -> Outcome {
        match pending {
            Pending::OneShot(t) => match t.wait_timeout(HUNG_AFTER) {
                Ok(Some(r)) => {
                    let class = r.output.argmax().map_or(u32::MAX, |c| c as u32);
                    let (agree, compared) = self.oracle.quality(ask.idx, &[class]);
                    let (latency_s, queue_s) =
                        (r.latency.as_secs_f64(), r.queue_delay.as_secs_f64());
                    Outcome::Answered(Answer {
                        level: r.level,
                        queue_s,
                        latency_s,
                        ttft_s: latency_s,
                        per_output_s: latency_s - queue_s,
                        outputs: 1,
                        oracle_ok: self.oracle.check_output(ask.idx, r.level, &r.output),
                        agree,
                        compared,
                    })
                }
                Ok(None) => Outcome::Broken("hung ticket".into()),
                Err(e) => refusal(e),
            },
            Pending::Decode(t) => match t.wait_timeout(HUNG_AFTER) {
                Ok(r) => {
                    let (agree, compared) = self.oracle.quality(ask.idx, &r.tokens);
                    let (ttft_s, decode_s) = (r.ttft.as_secs_f64(), r.decode_time.as_secs_f64());
                    let steps = r.tokens.len().saturating_sub(1);
                    Outcome::Answered(Answer {
                        level: r.level,
                        queue_s: r.queue_delay.as_secs_f64(),
                        latency_s: ttft_s + decode_s,
                        ttft_s,
                        per_output_s: decode_s / steps.max(1) as f64,
                        outputs: r.tokens.len(),
                        oracle_ok: self
                            .oracle
                            .check_tokens(ask.idx, r.level, ask.budget, &r.tokens),
                        agree,
                        compared,
                    })
                }
                // The decode ticket reports its own timeout as an expiry.
                Err(ServeError::DeadlineExpired) => Outcome::Broken("hung ticket".into()),
                Err(e) => refusal(e),
            },
        }
    }
}

/// The request stream of one seed: uniform draws from the dataset, and
/// a budget per request where the workload generates.
pub struct Asks {
    rng: Rng,
    decode: bool,
}

impl Asks {
    pub fn new(seed: u64, decode: bool) -> Asks {
        Asks {
            rng: Rng::stream(seed, 3),
            decode,
        }
    }

    pub fn next_ask(&mut self) -> Ask {
        let idx = self.rng.range(0, spec::DATASET - 1);
        let budget = if self.decode {
            self.rng.range(spec::LM_BUDGET.0, spec::LM_BUDGET.1)
        } else {
            1
        };
        Ask { idx, budget }
    }
}

/// When a request was due and when it went out.
#[derive(Debug, Clone, Copy)]
struct Sent {
    ask: Ask,
    steady: bool,
    due: Instant,
    submit_at: Instant,
    submit_s: f64,
}

impl Sent {
    fn record(&self, start: Instant, outcome: Outcome) -> Record {
        Record {
            ask: self.ask,
            due_s: self.due.saturating_duration_since(start).as_secs_f64(),
            lateness_s: self
                .submit_at
                .saturating_duration_since(self.due)
                .as_secs_f64(),
            submit_s: self.submit_s,
            steady: self.steady,
            outcome,
        }
    }

    /// Records the finished request's spans: the request from due time
    /// to outcome, and under it the generator's lateness, the time
    /// inside `submit`, the server's queue and execution (from the
    /// response's own fields, anchored at admission) and the
    /// generator's collection.
    fn trace(&self, tracer: &mut Tracer, id: u64, done: Instant, outcome: &Outcome) {
        let (due, sub, end) = (
            tracer.ns(self.due),
            tracer.ns(self.submit_at),
            tracer.ns(done),
        );
        let root = tracer.record("request", due, end, None, id);
        tracer.record("loadgen.late", due, sub, Some(root), id);
        let admitted = sub + (self.submit_s * 1e9) as u64;
        tracer.record("serve.submit", sub, admitted, Some(root), id);
        if let Outcome::Answered(a) = outcome {
            let dispatched = admitted + (a.queue_s * 1e9) as u64;
            let answered = (admitted + (a.latency_s * 1e9) as u64).min(end);
            tracer.record(
                "serve.queue",
                admitted,
                dispatched.min(answered),
                Some(root),
                id,
            );
            tracer.record(
                "serve.exec",
                dispatched.min(answered),
                answered,
                Some(root),
                id,
            );
            tracer.record("loadgen.collect", answered, end, Some(root), id);
        }
    }
}

/// Submits `ask`, timing the call.
fn send(
    target: &Target<'_>,
    ask: Ask,
    due: Instant,
    steady: bool,
) -> (Result<Pending, ServeError>, Sent) {
    let submit_at = Instant::now();
    let result = target.submit(ask);
    let sent = Sent {
        ask,
        steady,
        due,
        submit_at,
        submit_s: submit_at.elapsed().as_secs_f64(),
    };
    (result, sent)
}

/// Closed loop: one thread keeps `in_flight` requests outstanding,
/// replacing the oldest as soon as it is answered, for `seconds`; then
/// drains. A replacement is due the moment its slot came free. Every
/// finished request goes to `fold`, in due order.
pub fn closed_loop(
    target: &Target<'_>,
    asks: &mut Asks,
    in_flight: usize,
    seconds: f64,
    fold: &mut Fold,
    mut tracer: Option<&mut Tracer>,
) {
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let mut queue: VecDeque<(Pending, Sent)> = VecDeque::with_capacity(in_flight);
    let mut slot_free = start;
    let (mut id, mut refused) = (0u64, 0usize);
    loop {
        while queue.len() < in_flight && Instant::now() < stop {
            let (result, sent) = send(target, asks.next_ask(), slot_free, true);
            match result {
                Ok(pending) => queue.push_back((pending, sent)),
                Err(e) => {
                    fold.push(&sent.record(start, refusal(e)));
                    // A server that refuses a closed loop is broken; do
                    // not spin on it for the whole run.
                    refused += 1;
                    if refused > 1000 {
                        return;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            slot_free = Instant::now();
        }
        let Some((pending, sent)) = queue.pop_front() else {
            return;
        };
        let outcome = target.wait(pending, sent.ask);
        slot_free = Instant::now();
        id += 1;
        if let Some(t) = tracer.as_deref_mut() {
            sent.trace(t, id, slot_free, &outcome);
        }
        fold.push(&sent.record(start, outcome));
    }
}

/// Open loop: one thread submits request `i` at `arrivals[i].0` seconds
/// (`arrivals[i].1`: whether it is due in a calm phase) whatever the
/// server is doing (late ones go out at once, and their
/// lateness is recorded); a second thread collects the outcomes in
/// submission order, refusals at submission among them, and folds
/// them. Returns when every ticket is resolved.
pub fn open_loop(
    target: &Target<'_>,
    asks: &mut Asks,
    arrivals: &[(f64, bool)],
    fold: &mut Fold,
    tracer: Option<&mut Tracer>,
) {
    let start = Instant::now();
    let mut collector_tracer = tracer.as_deref().map(|t| t.sibling(1));
    let (tx, rx) = mpsc::channel::<(Result<Pending, ServeError>, Sent)>();
    let collector_tracer = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut id = 0u64;
            while let Ok((result, sent)) = rx.recv() {
                let (outcome, done) = match result {
                    Ok(pending) => (target.wait(pending, sent.ask), Instant::now()),
                    // Refused inside `submit`: over when the call returned.
                    Err(e) => (
                        refusal(e),
                        sent.submit_at + Duration::from_secs_f64(sent.submit_s),
                    ),
                };
                id += 1;
                if let Some(t) = collector_tracer.as_mut() {
                    sent.trace(t, id, done, &outcome);
                }
                fold.push(&sent.record(start, outcome));
            }
            collector_tracer
        });
        for &(at, calm) in arrivals {
            let due = start + Duration::from_secs_f64(at);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            tx.send(send(target, asks.next_ask(), due, calm))
                .expect("collector alive");
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    if let (Some(t), Some(c)) = (tracer, collector_tracer) {
        t.absorb(c);
    }
}

/// The `vit_burst` arrival schedule for a run of `seconds`: whole
/// calm-then-burst cycles (at least one), the last one cut where the
/// run ends.
pub fn burst_phases(seconds: f64) -> Vec<(f64, f64)> {
    let cycle: f64 = spec::BURST_CYCLE.iter().map(|p| p.0).sum();
    let mut phases = Vec::new();
    let mut left = seconds.max(cycle);
    while left > 1e-9 {
        for &(dur, rate) in &spec::BURST_CYCLE {
            let d = dur.min(left);
            if d > 1e-9 {
                phases.push((d, rate));
            }
            left -= d;
        }
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answered(lateness_s: f64, latency_s: f64, oracle_ok: bool) -> Record {
        Record {
            ask: Ask { idx: 0, budget: 1 },
            due_s: 1.0,
            lateness_s,
            submit_s: 0.0,
            steady: true,
            outcome: Outcome::Answered(Answer {
                level: 0,
                queue_s: 0.001,
                latency_s,
                ttft_s: latency_s,
                per_output_s: latency_s - 0.001,
                outputs: 1,
                oracle_ok,
                agree: 1,
                compared: 1,
            }),
        }
    }

    #[test]
    fn lateness_is_added_to_the_server_latency() {
        let r = answered(0.004, 0.010, true);
        let (_, latency, ttft) = r.from_due_s().unwrap();
        assert!((latency - 0.014).abs() < 1e-12);
        assert!((ttft - 0.014).abs() < 1e-12);
        // On time by the server's clock alone, late from due time.
        assert!(!r.within(0.012));
        assert!(r.within(0.014));
    }

    #[test]
    fn refused_and_wrong_answers_miss_every_limit() {
        for outcome in [
            Outcome::Rejected,
            Outcome::Shed,
            Outcome::Expired,
            Outcome::Broken("x".into()),
        ] {
            let r = Record {
                outcome,
                ..answered(0.0, 0.001, true)
            };
            assert!(r.from_due_s().is_none());
            assert!(!r.within(f64::INFINITY));
        }
        assert!(!answered(0.0, 0.001, false).within(f64::INFINITY));
    }

    #[test]
    fn burst_phases_fill_the_run_with_whole_cycles_then_a_cut_one() {
        let cycle: f64 = spec::BURST_CYCLE.iter().map(|p| p.0).sum();
        let p = burst_phases(2.0 * cycle + 1.0);
        assert_eq!(p.len(), 5);
        let total: f64 = p.iter().map(|x| x.0).sum();
        assert!((total - (2.0 * cycle + 1.0)).abs() < 1e-9);
        assert_eq!(p[4], (1.0, spec::BURST_CYCLE[0].1));
        // Shorter than a cycle: still one whole cycle.
        let short = burst_phases(0.1);
        assert_eq!(short.len(), 2);
    }

    #[test]
    fn the_ask_stream_is_a_function_of_the_seed() {
        let take = |seed| {
            let mut a = Asks::new(seed, true);
            (0..50).map(|_| a.next_ask()).collect::<Vec<_>>()
        };
        assert_eq!(take(5), take(5));
        assert_ne!(take(5), take(6));
        assert!(take(5).iter().all(|a| a.idx < spec::DATASET
            && (spec::LM_BUDGET.0..=spec::LM_BUDGET.1).contains(&a.budget)));
    }
}
