//! Constant folding and bit-blasting must give every operator the same
//! meaning.
//!
//! For every bitvector binary operator and every pair of width-4 operands
//! `(x, y)`, the solver must prove `op(vx, vy) = fold(x, y)` valid under
//! `vx = x ∧ vy = y`, where `fold(x, y)` is what the term constructor folds
//! the constant application to and `op(vx, vy)` is blasted into gates. The
//! term evaluator [`Context::eval`] must agree with the fold as well.

use lv_smt::{Context, Solver, SolverBudget, TermId, Validity};

const WIDTH: u32 = 4;

type Constructor = fn(&mut Context, TermId, TermId) -> TermId;

const OPERATORS: [(&str, Constructor); 18] = [
    ("bv_add", Context::bv_add),
    ("bv_sub", Context::bv_sub),
    ("bv_mul", Context::bv_mul),
    ("bv_and", Context::bv_and),
    ("bv_or", Context::bv_or),
    ("bv_xor", Context::bv_xor),
    ("bv_shl", Context::bv_shl),
    ("bv_lshr", Context::bv_lshr),
    ("bv_ashr", Context::bv_ashr),
    ("bv_udiv", Context::bv_udiv),
    ("bv_urem", Context::bv_urem),
    ("bv_sdiv", Context::bv_sdiv),
    ("bv_srem", Context::bv_srem),
    ("bv_ult", Context::bv_ult),
    ("bv_slt", Context::bv_slt),
    ("bv_sle", Context::bv_sle),
    ("eq", Context::eq),
    ("ne", Context::ne),
];

#[test]
fn every_binary_operator_folds_as_it_blasts_at_width_4() {
    let mut failures = Vec::new();
    for (name, op) in OPERATORS {
        let mut solver = Solver::new();
        let vx = solver.ctx.bv_var("x", WIDTH);
        let vy = solver.ctx.bv_var("y", WIDTH);
        let symbolic = op(&mut solver.ctx, vx, vy);
        for x in 0..1u64 << WIDTH {
            for y in 0..1u64 << WIDTH {
                let ctx = &mut solver.ctx;
                let (kx, ky) = (ctx.bv_const(x, WIDTH), ctx.bv_const(y, WIDTH));
                let folded = op(ctx, kx, ky);
                let fold = ctx
                    .as_bv_const(folded)
                    .or_else(|| ctx.as_bool_const(folded).map(u64::from))
                    .unwrap_or_else(|| panic!("{name}({x}, {y}) does not fold"));
                let evaluated = ctx.eval(symbolic, &|var| if var == "x" { x } else { y });
                if evaluated != fold {
                    failures.push(format!("{name}({x}, {y}): fold {fold}, eval {evaluated}"));
                }
                let at_x = ctx.eq(vx, kx);
                let at_y = ctx.eq(vy, ky);
                let inputs = ctx.and(at_x, at_y);
                let agrees = ctx.eq(symbolic, folded);
                let claim = ctx.implies(inputs, agrees);
                match solver.check_validity(claim, &SolverBudget::default()) {
                    Validity::Valid => {}
                    other => failures.push(format!("{name}({x}, {y}): fold {fold}, {other:?}")),
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} disagreements:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
