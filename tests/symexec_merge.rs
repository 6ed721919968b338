//! The symbolic executor's `if` merge against the concrete interpreter.
//!
//! For every TSVC kernel with an `if`, each array cell of the symbolic run,
//! evaluated under a random input, must equal what `lv_interp` computes on
//! that input, and the symbolic UB predicate must hold exactly when the
//! concrete run stops on fatal undefined behaviour.

use llm_vectorizer_repro::cir::ast::Type;
use llm_vectorizer_repro::interp::{run_function, ArgBindings, ExecConfig};
use llm_vectorizer_repro::smt::Context;
use llm_vectorizer_repro::tsvc::KERNELS;
use llm_vectorizer_repro::tv::{sym_exec, SymExecConfig};
use std::collections::HashMap;

/// The conditional kernels this test must cover.
const CONDITIONAL: [&str; 9] = [
    "s271", "s2711", "s2712", "s272", "s273", "s274", "s441", "s443", "vif",
];

const N: i32 = 16;
const ARRAY_LEN: usize = 24;
const TRIALS: u64 = 40;

/// SplitMix64.
fn next_random(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn symbolic_cells_of_conditional_kernels_match_the_interpreter() {
    let mut checked = Vec::new();
    for kernel in KERNELS.iter().filter(|k| k.source.contains("if (")) {
        let func = kernel.function();
        let mut config = SymExecConfig {
            array_len: ARRAY_LEN,
            ..SymExecConfig::default()
        };
        for name in func.scalar_params() {
            config.scalar_bindings.insert(name.to_string(), N);
        }
        let mut ctx = Context::new();
        let Ok(symbolic) = sym_exec(&mut ctx, &func, &config) else {
            assert!(
                !CONDITIONAL.contains(&kernel.name),
                "{} must execute symbolically",
                kernel.name
            );
            continue;
        };
        let mut state = 0x5eed ^ kernel.name.len() as u64;
        for trial in 0..TRIALS {
            // Small values, so both branches of every comparison (and the
            // zero tests) are taken.
            let mut inputs: HashMap<String, Vec<i32>> = HashMap::new();
            let mut args = ArgBindings::new();
            for param in &func.params {
                match param.ty {
                    Type::Int => args = args.scalar(N),
                    _ => {
                        let data: Vec<i32> = (0..ARRAY_LEN)
                            .map(|_| (next_random(&mut state) % 41) as i32 - 20)
                            .collect();
                        inputs.insert(param.name.clone(), data.clone());
                        args = args.array(data);
                    }
                }
            }
            let value_of = |name: &str| -> u64 {
                let value = name
                    .split_once('!')
                    .and_then(|(array, index)| {
                        Some(inputs.get(array)?[index.parse::<usize>().ok()?])
                    })
                    .unwrap_or(0);
                value as u32 as u64
            };
            let ub = ctx.eval(symbolic.ub, &value_of) != 0;
            match run_function(&func, &args, &ExecConfig::default()) {
                Err(err) => assert!(
                    ub,
                    "{} trial {trial}: concrete UB ({err}) not modelled",
                    kernel.name
                ),
                Ok(concrete) => {
                    assert!(
                        !ub,
                        "{} trial {trial}: symbolic UB without a concrete one",
                        kernel.name
                    );
                    for (array, cells) in symbolic.arrays.iter().enumerate() {
                        for (index, &cell) in cells.iter().enumerate() {
                            assert_eq!(
                                ctx.eval(cell, &value_of) as u32 as i32,
                                concrete.arrays[array][index],
                                "{} trial {trial}: {array}[{index}]",
                                kernel.name
                            );
                        }
                    }
                }
            }
        }
        checked.push(kernel.name);
    }
    for name in CONDITIONAL {
        assert!(
            checked.contains(&name),
            "{name} was not checked: {checked:?}"
        );
    }
}
