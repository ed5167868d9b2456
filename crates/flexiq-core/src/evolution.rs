//! The evolutionary channel-selection algorithm (paper Alg. 1).
//!
//! Chromosomes are group masks over selection units. Crossover swaps the
//! suffix after a random unit (layer) boundary; mutation flips selected
//! groups with small probability and repairs the parameter ratio with
//! score-weighted flips; fitness is the mean L2 distance between the
//! candidate plan's logits and the 8-bit model's logits on a calibration
//! sample ("the soft labels of the high-bitwidth quantization model").
//! Elitist selection keeps the best `k` chromosomes each generation, so
//! the best fitness is monotone non-increasing.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use flexiq_nn::graph::Graph;
use flexiq_nn::qexec::{
    run_quantized, run_quantized_batch, MixedPlan, QuantExecOptions, QuantizedModel,
};
use flexiq_tensor::rng::seeded;
use flexiq_tensor::{stats, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

use crate::selection::{Mask, SelectionContext};
use crate::Result;

/// Hyperparameters of Alg. 1.
#[derive(Debug, Clone, PartialEq)]
pub struct EvolutionConfig {
    /// Population size N (paper: 50).
    pub population: usize,
    /// Generations G (paper: 50).
    pub generations: usize,
    /// Elite count k (paper: 2).
    pub elites: usize,
    /// Parent pool size r (paper: 10).
    pub parents: usize,
    /// Per-set-bit mutation probability (paper: 0.01).
    pub mutation_p: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EvolutionConfig {
    fn default() -> Self {
        EvolutionConfig {
            population: 50,
            generations: 50,
            elites: 2,
            parents: 10,
            mutation_p: 0.01,
            seed: 0xF1E1,
        }
    }
}

impl EvolutionConfig {
    /// A reduced configuration for experiments and CI (the library
    /// supports the paper's full size; the harness defaults to this).
    pub fn fast() -> Self {
        EvolutionConfig {
            population: 10,
            generations: 8,
            parents: 4,
            ..Default::default()
        }
    }
}

/// Fitness evaluator: L2 distance of a plan's logits to the 8-bit
/// reference on a fixed sample set.
///
/// When the samples share one shape and the execution options are
/// batch-invariant (static extraction — the default), every candidate
/// evaluation runs as **one** stacked pass via
/// [`flexiq_nn::qexec::run_quantized_batch`]: activation quantization
/// and weight bit-lowering amortize across the whole fitness set, which
/// is where the evolutionary search spends nearly all of its time. The
/// batched executor is bit-exact per sample, so fitness values — and
/// therefore the selected masks — are identical to the per-sample walk.
pub struct FitnessEval<'a> {
    graph: &'a Graph,
    model: &'a QuantizedModel,
    inputs: &'a [Tensor],
    /// The fitness set stacked `[N, …]`; `None` when sample shapes
    /// differ or the opts make batching non-invariant.
    stacked: Option<Tensor>,
    reference: Vec<Tensor>,
    opts: QuantExecOptions,
}

impl<'a> FitnessEval<'a> {
    /// Builds the evaluator, computing the 8-bit reference logits.
    pub fn new(
        graph: &'a Graph,
        model: &'a QuantizedModel,
        inputs: &'a [Tensor],
        opts: QuantExecOptions,
    ) -> Result<Self> {
        let same_shape = inputs.windows(2).all(|w| w[0].dims() == w[1].dims());
        let stacked = if opts.batch_invariant() && same_shape && inputs.len() > 1 {
            Some(Tensor::stack(inputs).map_err(flexiq_nn::NnError::from)?)
        } else {
            None
        };
        let high = MixedPlan::all_high(model);
        let reference = match &stacked {
            Some(st) => {
                let y = run_quantized_batch(graph, model, &high, opts, st)?;
                (0..inputs.len())
                    .map(|s| y.index_axis0(s).map_err(flexiq_nn::NnError::from))
                    .collect::<std::result::Result<Vec<_>, _>>()?
            }
            None => inputs
                .iter()
                .map(|x| run_quantized(graph, model, &high, opts, x))
                .collect::<Result<Vec<_>>>()?,
        };
        Ok(FitnessEval {
            graph,
            model,
            inputs,
            stacked,
            reference,
            opts,
        })
    }

    /// Mean L2 distance to the 8-bit soft labels (lower is better).
    pub fn fitness(&self, plan: &MixedPlan) -> Result<f64> {
        let mut total = 0.0f64;
        match &self.stacked {
            Some(st) => {
                let y = run_quantized_batch(self.graph, self.model, plan, self.opts, st)?;
                for (s, r) in self.reference.iter().enumerate() {
                    let ys = y.index_axis0(s).map_err(flexiq_nn::NnError::from)?;
                    total += stats::l2_distance(ys.data(), r.data()) as f64;
                }
            }
            None => {
                for (x, r) in self.inputs.iter().zip(self.reference.iter()) {
                    let y = run_quantized(self.graph, self.model, plan, self.opts, x)?;
                    total += stats::l2_distance(y.data(), r.data()) as f64;
                }
            }
        }
        Ok(total / self.inputs.len().max(1) as f64)
    }
}

/// Outcome of one evolutionary run.
#[derive(Debug, Clone)]
pub struct EvolutionResult {
    /// The best mask found.
    pub mask: Mask,
    /// Best fitness at each generation (monotone non-increasing).
    pub best_per_generation: Vec<f64>,
}

fn mask_key(mask: &Mask) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for row in mask {
        row.hash(&mut h);
    }
    h.finish()
}

fn crossover(a: &Mask, b: &Mask, cut: usize) -> (Mask, Mask) {
    let mut c1 = a.clone();
    let mut c2 = b.clone();
    for u in cut..a.len() {
        c1[u] = b[u].clone();
        c2[u] = a[u].clone();
    }
    (c1, c2)
}

fn mutate(
    ctx: &SelectionContext,
    mask: &mut Mask,
    target_params: usize,
    frozen: &Mask,
    p: f64,
    rng: &mut StdRng,
) {
    for (u, unit) in ctx.units.iter().enumerate() {
        if unit.excluded {
            continue;
        }
        for g in 0..unit.n_groups {
            if mask[u][g] && !frozen[u][g] && rng.gen::<f64>() < p {
                mask[u][g] = false;
            }
        }
    }
    ctx.repair(mask, target_params, frozen, rng);
}

/// Runs Alg. 1 and returns the best mask for the target.
pub fn evolve(
    ctx: &SelectionContext,
    eval: &FitnessEval<'_>,
    target_params: usize,
    frozen: &Mask,
    cfg: &EvolutionConfig,
) -> Result<EvolutionResult> {
    let mut rng = seeded(cfg.seed);
    let eligible = ctx.eligible_params().max(1);
    let ratio = target_params as f64 / eligible as f64;

    // Seed population: one per-layer greedy chromosome plus score-biased
    // random chromosomes (Alg. 1 line 1).
    let mut population: Vec<Mask> = Vec::with_capacity(cfg.population);
    let mut greedy = ctx.greedy_per_layer_mask(ratio, frozen);
    ctx.repair(&mut greedy, target_params, frozen, &mut rng);
    population.push(greedy);
    while population.len() < cfg.population.max(2) {
        population.push(ctx.seeded_mask(target_params, frozen, &mut rng));
    }

    let mut cache: HashMap<u64, f64> = HashMap::new();
    let mut best_per_generation = Vec::with_capacity(cfg.generations);

    let mut scored: Vec<(f64, Mask)> = Vec::new();
    for generation in 0..cfg.generations.max(1) {
        // Evaluate (with memoization — elites recur every generation).
        scored.clear();
        for m in &population {
            let key = mask_key(m);
            let fit = match cache.get(&key) {
                Some(&f) => f,
                None => {
                    let f = eval.fitness(&ctx.mask_to_plan(m, model_of(eval)))?;
                    cache.insert(key, f);
                    f
                }
            };
            scored.push((fit, m.clone()));
        }
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite fitness"));
        best_per_generation.push(scored[0].0);
        if generation + 1 == cfg.generations {
            break;
        }

        // Elites carry over; parents breed the rest (Alg. 1 lines 5–9).
        let elites: Vec<Mask> = scored
            .iter()
            .take(cfg.elites.max(1))
            .map(|(_, m)| m.clone())
            .collect();
        let parents: Vec<&Mask> = scored
            .iter()
            .take(cfg.parents.max(2))
            .map(|(_, m)| m)
            .collect();
        let mut next = elites;
        while next.len() < cfg.population.max(2) {
            let pa = parents[rng.gen_range(0..parents.len())];
            let pb = parents[rng.gen_range(0..parents.len())];
            let cut = rng.gen_range(1..ctx.units.len().max(2));
            let (mut c1, mut c2) = crossover(pa, pb, cut);
            mutate(
                ctx,
                &mut c1,
                target_params,
                frozen,
                cfg.mutation_p,
                &mut rng,
            );
            next.push(c1);
            if next.len() < cfg.population.max(2) {
                mutate(
                    ctx,
                    &mut c2,
                    target_params,
                    frozen,
                    cfg.mutation_p,
                    &mut rng,
                );
                next.push(c2);
            }
        }
        population = next;
    }

    Ok(EvolutionResult {
        mask: scored[0].1.clone(),
        best_per_generation,
    })
}

fn model_of<'a>(eval: &FitnessEval<'a>) -> &'a QuantizedModel {
    eval.model
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::GroupScores;
    use crate::selection::default_exclusions;
    use flexiq_nn::calibrate::calibrate_default;
    use flexiq_nn::data::gen_image_inputs;
    use flexiq_nn::zoo::{ModelId, Scale};
    use flexiq_quant::GroupSpec;

    struct Fixture {
        graph: flexiq_nn::Graph,
        model: QuantizedModel,
        inputs: Vec<Tensor>,
    }

    fn fixture(id: ModelId) -> Fixture {
        let graph = id.build(Scale::Test).unwrap();
        let inputs = gen_image_inputs(4, &id.input_dims(Scale::Test), 211);
        let calib = calibrate_default(&graph, &inputs).unwrap();
        let model = QuantizedModel::prepare(&graph, &calib, GroupSpec::new(4)).unwrap();
        Fixture {
            graph,
            model,
            inputs,
        }
    }

    #[test]
    fn best_fitness_is_monotone_under_elitism() {
        let f = fixture(ModelId::RNet20);
        let scores = GroupScores::compute(&f.model);
        let excl = default_exclusions(&f.graph);
        let ctx = SelectionContext::build(&f.graph, &f.model, &scores, &excl, true).unwrap();
        let eval = FitnessEval::new(&f.graph, &f.model, &f.inputs, Default::default()).unwrap();
        let cfg = EvolutionConfig {
            population: 6,
            generations: 5,
            parents: 3,
            ..Default::default()
        };
        let target = ctx.eligible_params() / 2;
        let res = evolve(&ctx, &eval, target, &ctx.empty_mask(), &cfg).unwrap();
        for w in res.best_per_generation.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "fitness rose: {:?}",
                res.best_per_generation
            );
        }
        let got = ctx.mask_params(&res.mask);
        assert!(got >= target, "result under target: {got} < {target}");
    }

    #[test]
    fn evolution_at_least_matches_random_selection() {
        let f = fixture(ModelId::ViTS);
        let scores = GroupScores::compute(&f.model);
        let excl = default_exclusions(&f.graph);
        let ctx = SelectionContext::build(&f.graph, &f.model, &scores, &excl, true).unwrap();
        let eval = FitnessEval::new(&f.graph, &f.model, &f.inputs, Default::default()).unwrap();
        let target = ctx.eligible_params() / 2;
        let cfg = EvolutionConfig {
            population: 8,
            generations: 6,
            parents: 4,
            ..Default::default()
        };
        let res = evolve(&ctx, &eval, target, &ctx.empty_mask(), &cfg).unwrap();
        let evo_fit = *res.best_per_generation.last().unwrap();
        let rand_mask = ctx.random_mask(target, &ctx.empty_mask(), &mut seeded(212));
        let rand_fit = eval
            .fitness(&ctx.mask_to_plan(&rand_mask, &f.model))
            .unwrap();
        assert!(
            evo_fit <= rand_fit * 1.001,
            "evolution {evo_fit} worse than random {rand_fit}"
        );
    }

    #[test]
    fn frozen_groups_survive_evolution() {
        let f = fixture(ModelId::RNet20);
        let scores = GroupScores::compute(&f.model);
        let excl = default_exclusions(&f.graph);
        let ctx = SelectionContext::build(&f.graph, &f.model, &scores, &excl, true).unwrap();
        let eval = FitnessEval::new(&f.graph, &f.model, &f.inputs, Default::default()).unwrap();
        let quarter = ctx.eligible_params() / 4;
        let frozen = ctx.greedy_mask(quarter, &ctx.empty_mask());
        let cfg = EvolutionConfig {
            population: 4,
            generations: 3,
            parents: 2,
            ..Default::default()
        };
        let res = evolve(&ctx, &eval, quarter * 2, &frozen, &cfg).unwrap();
        for (u, row) in frozen.iter().enumerate() {
            for (g, &fz) in row.iter().enumerate() {
                if fz {
                    assert!(res.mask[u][g], "frozen ({u},{g}) lost");
                }
            }
        }
    }

    #[test]
    fn crossover_swaps_suffixes() {
        let a: Mask = vec![vec![true, true], vec![true, false]];
        let b: Mask = vec![vec![false, false], vec![false, true]];
        let (c1, c2) = crossover(&a, &b, 1);
        assert_eq!(c1, vec![vec![true, true], vec![false, true]]);
        assert_eq!(c2, vec![vec![false, false], vec![true, false]]);
    }
}
