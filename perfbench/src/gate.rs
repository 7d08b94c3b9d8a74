//! The correctness gate: every distinct result the servers returned must be
//! byte-identical to the in-process public-API rendering of the same request,
//! and every returned solve mechanism must pass `audit_mechanism`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use privmech_core::{audit_mechanism, PrivacyEngine, PrivacyLevel};
use privmech_numerics::Rational;
use privmech_serve::json::{self, Json};
use privmech_serve::proto::{
    assemble_solves, mechanism_from_wire, render_interaction, render_solve, ConsumerSpec,
    WireError, WireScalar,
};
use privmech_serve::zoo::ZooRequest;

use crate::plan::{Plan, Template};

/// The result the server should have rendered for `template`, computed in
/// process through the same public functions the server calls.
pub fn compute(template: &Template) -> Result<String, WireError> {
    if template.scalar() == f64::TAG {
        compute_as::<f64>(&template.op, &template.body)
    } else {
        compute_as::<Rational>(&template.op, &template.body)
    }
}

fn compute_as<T: WireScalar>(op: &str, body: &Json) -> Result<String, WireError> {
    let engine = PrivacyEngine::with_threads(1);
    match op {
        "solve" => {
            let spec = ConsumerSpec::<T>::from_wire(body)?;
            let validated = spec.to_request(scalar::<T>(body, "alpha")?)?;
            Ok(render_solve(
                &engine.solve(&validated).map_err(WireError::from)?,
            ))
        }
        "sweep" => {
            let spec = ConsumerSpec::<T>::from_wire(body)?;
            let levels = levels::<T>(body)?;
            let validated = spec.to_request(levels[0].alpha().clone())?;
            let solves = engine.sweep(&levels, &validated).map_err(WireError::from)?;
            let items: Vec<String> = solves.iter().map(render_solve).collect();
            Ok(assemble_solves(items.iter().map(String::as_str)))
        }
        "interact" => {
            let spec = ConsumerSpec::<T>::from_wire(body)?.with_strategy(Default::default());
            let mechanism = mechanism_from_wire::<T>(
                body.get("mechanism")
                    .ok_or_else(|| WireError::bad_request("no mechanism"))?,
            )?;
            let validated = spec.to_request(T::zero())?;
            let interaction = engine
                .interact(&mechanism, &validated)
                .map_err(WireError::from)?;
            Ok(render_interaction(&interaction))
        }
        _ => ZooRequest::<T>::from_wire(op, body)?.validate()?.evaluate(),
    }
}

/// A scalar request field.
pub fn scalar<T: WireScalar>(body: &Json, field: &str) -> Result<T, WireError> {
    body.get(field)
        .and_then(T::from_wire)
        .ok_or_else(|| WireError::bad_request(format!("unparsable \"{field}\"")))
}

/// A sweep's privacy levels.
pub fn levels<T: WireScalar>(body: &Json) -> Result<Vec<PrivacyLevel<T>>, WireError> {
    let alphas = body
        .get("alphas")
        .and_then(Json::as_arr)
        .filter(|a| !a.is_empty())
        .ok_or_else(|| WireError::bad_request("no alphas"))?;
    alphas
        .iter()
        .map(|value| {
            let alpha = T::from_wire(value).ok_or_else(|| WireError::bad_request("bad alpha"))?;
            PrivacyLevel::new(alpha).map_err(WireError::from)
        })
        .collect()
}

/// Audit every mechanism in a solve or sweep result: each must be
/// row-stochastic and meet its own α.
fn audit(template: &Template, result: &str) -> Result<(), String> {
    if template.scalar() == f64::TAG {
        audit_as::<f64>(&template.op, result)
    } else {
        audit_as::<Rational>(&template.op, result)
    }
}

fn audit_as<T: WireScalar>(op: &str, result: &str) -> Result<(), String> {
    let parsed = json::parse(result).map_err(|e| format!("result does not parse: {e}"))?;
    let solves: Vec<&Json> = match op {
        "solve" => vec![&parsed],
        "sweep" => parsed
            .get("solves")
            .and_then(Json::as_arr)
            .ok_or("sweep result has no solves")?
            .iter()
            .collect(),
        _ => return Ok(()),
    };
    for solve in solves {
        let alpha: T = scalar(solve, "alpha").map_err(|e| e.message)?;
        let level = PrivacyLevel::new(alpha).map_err(|e| e.to_string())?;
        let mechanism = mechanism_from_wire::<T>(solve.get("mechanism").ok_or("no mechanism")?)
            .map_err(|e| e.message)?;
        let report = audit_mechanism(&mechanism, &level);
        if !report.row_stochastic || !report.meets_target {
            return Err(format!(
                "audit failed (row_stochastic {}, meets α {})",
                report.row_stochastic, report.meets_target
            ));
        }
    }
    Ok(())
}

/// Check every distinct result in `results` against its in-process
/// rendering and audit it, on two threads. Returns one line per problem.
pub fn check(plan: &Plan, results: &HashMap<usize, Vec<String>>) -> Vec<String> {
    let mut work: Vec<(&usize, &Vec<String>)> = results.iter().collect();
    work.sort_by_key(|(template, _)| **template);
    let next = AtomicUsize::new(0);
    let problems = Mutex::new(Vec::new());
    let worker = || loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        let Some(&(&index, distinct)) = work.get(k) else {
            return;
        };
        let template = &plan.templates[index];
        let mut found = Vec::new();
        match compute(template) {
            Ok(expected) => {
                for got in distinct {
                    if *got != expected {
                        found.push(format!(
                            "{} result differs from the in-process rendering: {:.160}",
                            template.op, template.tail
                        ));
                    }
                }
                if let Err(e) = audit(template, &expected) {
                    found.push(format!("{} {e}: {:.160}", template.op, template.tail));
                }
            }
            Err(e) => found.push(format!(
                "server answered but in-process {} failed with {}: {:.160}",
                template.op, e.code, template.tail
            )),
        }
        problems
            .lock()
            .expect("no thread panics holding the lock")
            .extend(found);
    };
    std::thread::scope(|scope| {
        scope.spawn(worker);
        worker();
    });
    problems.into_inner().expect("no thread panicked")
}

/// Compare the cached results with the same templates' `cache: bypass`
/// results: cached ≡ uncached.
pub fn compare_uncached(
    cached: &HashMap<usize, Vec<String>>,
    uncached: &HashMap<usize, Vec<String>>,
    plan: &Plan,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (index, results) in cached {
        if uncached.get(index) != Some(results) {
            problems.push(format!(
                "cached and uncached {} differ: {:.160}",
                plan.templates[*index].op, plan.templates[*index].tail
            ));
        }
    }
    problems
}
