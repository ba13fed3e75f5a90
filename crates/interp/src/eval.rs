//! Expression evaluation over scalars and distributed array versions.

use std::collections::BTreeMap;

use hpfc_lang::ast::{BinOp, Expr, UnOp};
use hpfc_mapping::ArrayId;
use hpfc_runtime::ArrayRt;

/// A subscript outside its array's declared bounds `1..=extent`, as
/// found on the evaluation path. It is `Copy` and carries no string, so
/// the per-element `Result` of a whole-array statement stays cheap; the
/// executor names the array when it turns this into
/// [`hpfc_runtime::ExecError::OutOfBounds`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBounds {
    /// The subscripted array.
    pub array: ArrayId,
    /// Dimension, 1-based as in the source.
    pub dim: usize,
    /// The subscript value, 1-based as in the source.
    pub index: i64,
    /// Declared extent of that dimension.
    pub extent: u64,
}

/// Evaluation context: scalar bindings, array runtimes, and an optional
/// current point for whole-array (elementwise) expressions.
pub struct EvalCtx<'a> {
    /// Scalar variables (loop indices included), 1-based Fortran values.
    pub scalars: &'a BTreeMap<String, f64>,
    /// Array runtimes by id.
    pub arrays: &'a [ArrayRt],
    /// name → array id.
    pub names: &'a BTreeMap<String, ArrayId>,
    /// The current point for elementwise evaluation (zero-based), if
    /// inside a whole-array assignment.
    pub point: Option<&'a [u64]>,
}

impl<'a> EvalCtx<'a> {
    /// Evaluate an expression to a number. A computed subscript outside
    /// its array's bounds is an error, never clamped.
    pub fn eval(&self, e: &Expr) -> Result<f64, OutOfBounds> {
        Ok(match e {
            Expr::Int(v, _) => *v as f64,
            Expr::Real(v, _) => *v,
            Expr::Var(n, _) => {
                if let Some(a) = self.names.get(n) {
                    // Whole-array reference: elementwise value at the
                    // current point (sema admits bare array names only
                    // in whole-array assignments of the same shape).
                    let p = self
                        .point
                        .unwrap_or_else(|| panic!("whole-array `{n}` outside elementwise context"));
                    self.arrays[a.0 as usize].get(p)
                } else {
                    self.scalars.get(n).copied().unwrap_or(0.0)
                }
            }
            Expr::Ref { name, subs, .. } => {
                if let Some(&a) = self.names.get(name) {
                    let point = self.point_of(a, subs)?;
                    self.arrays[a.0 as usize].get(&point)
                } else {
                    self.intrinsic(name, subs)?
                }
            }
            Expr::Bin { op, l, r, .. } => {
                let (a, b) = (self.eval(l)?, self.eval(r)?);
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Pow => a.powf(b),
                    BinOp::Lt => bool_f(a < b),
                    BinOp::Gt => bool_f(a > b),
                    BinOp::Le => bool_f(a <= b),
                    BinOp::Ge => bool_f(a >= b),
                    BinOp::Eq => bool_f(a == b),
                    BinOp::Ne => bool_f(a != b),
                    BinOp::And => bool_f(a != 0.0 && b != 0.0),
                    BinOp::Or => bool_f(a != 0.0 || b != 0.0),
                }
            }
            Expr::Un { op, e, .. } => match op {
                UnOp::Neg => -self.eval(e)?,
                UnOp::Not => bool_f(self.eval(e)? == 0.0),
            },
        })
    }

    /// The zero-based point of the element `a(subs)`: every 1-based
    /// subscript is evaluated and checked against the declared extent.
    pub fn point_of(&self, a: ArrayId, subs: &[Expr]) -> Result<Vec<u64>, OutOfBounds> {
        let extents = &self.arrays[a.0 as usize].mappings[0].array_extents;
        subs.iter()
            .enumerate()
            .map(|(d, s)| {
                let index = self.eval(s)? as i64;
                let extent = extents.extent(d);
                if index < 1 || index as u64 > extent {
                    return Err(OutOfBounds { array: a, dim: d + 1, index, extent });
                }
                Ok(index as u64 - 1)
            })
            .collect()
    }

    fn intrinsic(&self, name: &str, args: &[Expr]) -> Result<f64, OutOfBounds> {
        let v = args.iter().map(|a| self.eval(a)).collect::<Result<Vec<f64>, _>>()?;
        Ok(match (name, v.as_slice()) {
            ("sqrt", [x]) => x.sqrt(),
            ("abs", [x]) => x.abs(),
            ("sin", [x]) => x.sin(),
            ("cos", [x]) => x.cos(),
            ("exp", [x]) => x.exp(),
            ("real", [x]) => *x,
            ("mod", [x, y]) => x % y,
            ("min", rest) => rest.iter().copied().fold(f64::INFINITY, f64::min),
            ("max", rest) => rest.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            _ => panic!("unknown intrinsic `{name}`"),
        })
    }
}

fn bool_f(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpfc_lang::parser::parse_program;
    use hpfc_lang::ast::Stmt;

    fn expr_of(src: &str) -> Expr {
        let p = parse_program(&format!("subroutine s\nx = {src}\nend")).unwrap();
        match &p.routines[0].body[0] {
            Stmt::Assign { rhs, .. } => rhs.clone(),
            _ => unreachable!(),
        }
    }

    fn eval_scalar(src: &str, scalars: &[(&str, f64)]) -> f64 {
        let map: BTreeMap<String, f64> =
            scalars.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        let names = BTreeMap::new();
        let ctx = EvalCtx { scalars: &map, arrays: &[], names: &names, point: None };
        ctx.eval(&expr_of(src)).expect("no array references")
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval_scalar("1 + 2 * 3", &[]), 7.0);
        assert_eq!(eval_scalar("2 ** 3 ** 1", &[]), 8.0);
        assert_eq!(eval_scalar("-(4 - 6) / 2", &[]), 1.0);
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(eval_scalar("1 < 2 .and. 3 > 2", &[]), 1.0);
        assert_eq!(eval_scalar(".not. (1 == 1)", &[]), 0.0);
        assert_eq!(eval_scalar("2 /= 2 .or. 1 >= 1", &[]), 1.0);
    }

    #[test]
    fn scalar_lookup_with_default_zero() {
        assert_eq!(eval_scalar("t * 2", &[("t", 21.0)]), 42.0);
        assert_eq!(eval_scalar("unknown + 1", &[]), 1.0);
    }

    #[test]
    fn intrinsics() {
        assert_eq!(eval_scalar("sqrt(16.0)", &[]), 4.0);
        assert_eq!(eval_scalar("abs(-3.5)", &[]), 3.5);
        assert_eq!(eval_scalar("mod(7, 3)", &[]), 1.0);
        assert_eq!(eval_scalar("max(1, 5, 3)", &[]), 5.0);
        assert_eq!(eval_scalar("min(4, 2)", &[]), 2.0);
    }
}
