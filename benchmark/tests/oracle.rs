//! The output oracle must trip: a served response passes bit for bit,
//! and the same response doctored in one bit, attributed to another
//! level, or cut short does not.

use flexiq_benchmark::loadgen::{Ask, Outcome, Target};
use flexiq_benchmark::spec::Workload;
use flexiq_benchmark::workload::{size_ambient_pool, Deployment, Oracle, Serving};
use flexiq_tensor::Tensor;

fn set_up(w: Workload) -> (Deployment, Oracle) {
    let dep = Deployment::set_up(w).expect("set-up");
    let oracle = Oracle::build(&dep).expect("oracle");
    (dep, oracle)
}

fn a_doctored_one_shot_response_fails_the_oracle() {
    let (dep, oracle) = set_up(Workload::CnnInt4);
    let Serving::OneShot(server) = &dep.serving else {
        panic!("cnn_int4 is a one-shot workload");
    };
    let idx = 5;
    let ticket = server
        .submit(oracle.dataset.inputs[idx].clone())
        .expect("admitted");
    let served = ticket.wait().expect("answered");
    assert!(oracle.check_output(idx, served.level, &served.output));

    // One bit of one logit.
    let mut bits = served.output.data().to_vec();
    bits[0] = f32::from_bits(bits[0].to_bits() ^ 1);
    let doctored = Tensor::from_vec(served.output.dims().to_vec(), bits).expect("same dims");
    assert!(!oracle.check_output(idx, served.level, &doctored));
    // The right output for another input, and for a level the oracle
    // holds no reference of.
    assert!(!oracle.check_output(idx + 1, served.level, &served.output));
    assert!(!oracle.check_output(idx, served.level + 1, &served.output));
    // One element short.
    let short = Tensor::from_vec(
        [served.output.numel() - 1],
        served.output.data()[1..].to_vec(),
    )
    .expect("dims");
    assert!(!oracle.check_output(idx, served.level, &short));
    dep.shut_down();
}

fn a_doctored_generation_fails_the_oracle() {
    let (dep, oracle) = set_up(Workload::LmDecode);
    let target = Target::new(&dep, &oracle);
    let ask = Ask { idx: 9, budget: 7 };
    let pending = target.submit(ask).expect("admitted");
    let Outcome::Answered(answer) = target.wait(pending, ask) else {
        panic!("the generation was refused");
    };
    assert!(answer.oracle_ok);
    assert_eq!(answer.outputs, 7);

    // The same request checked as if it had asked for another budget:
    // the served tokens are then one too many.
    let pending = target.submit(ask).expect("admitted");
    let wrong = Ask { budget: 6, ..ask };
    let Outcome::Answered(answer) = target.wait(pending, wrong) else {
        panic!("the generation was refused");
    };
    assert!(!answer.oracle_ok, "a token too many must not pass");

    // Tokens doctored directly.
    let level = dep.rt.level();
    let Serving::Decode(server) = &dep.serving else {
        panic!("lm_decode is the decode workload");
    };
    let served = server
        .submit_bounded(oracle.dataset.inputs[ask.idx].clone(), ask.budget)
        .expect("admitted")
        .wait()
        .expect("answered");
    assert!(oracle.check_tokens(ask.idx, level, ask.budget, &served.tokens));
    let mut doctored = served.tokens.clone();
    *doctored.last_mut().expect("tokens") ^= 1;
    assert!(!oracle.check_tokens(ask.idx, level, ask.budget, &doctored));
    assert!(!oracle.check_tokens(ask.idx, level + 1, ask.budget, &served.tokens));
    dep.shut_down();
}

/// One test: the pool is sized through the process environment, once.
#[test]
fn doctored_responses_fail_the_oracle() {
    size_ambient_pool();
    a_doctored_one_shot_response_fails_the_oracle();
    a_doctored_generation_fails_the_oracle();
}
