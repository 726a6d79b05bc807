//! The [`Model`] trait and the model factory.

use crate::linear::{LinearModel, LinearTask};
use crate::mlp::Mlp;
use crate::softmax::SoftmaxRegression;
use corgipile_storage::{FeatureVec, RowSlice, TupleRef};

/// A trainable model with a flat parameter vector.
///
/// All models expose
/// * per-example loss and dense gradient (generic path, used by mini-batch
///   and Adam);
/// * a fast fused SGD step ([`Model::sgd_step`]) that linear models override
///   with a sparse-aware update (one `axpy` per tuple — the path the paper's
///   per-tuple UDA/operator implementations take);
/// * a FLOP estimate for the simulated compute clock.
pub trait Model: Send + Sync {
    /// Number of parameters.
    fn num_params(&self) -> usize;

    /// Borrow the flat parameter vector.
    fn params(&self) -> &[f32];

    /// Mutably borrow the flat parameter vector.
    fn params_mut(&mut self) -> &mut [f32];

    /// Per-example loss.
    fn loss(&self, x: &FeatureVec, y: f32) -> f64;

    /// Accumulate the per-example gradient into `grad` (length
    /// [`Model::num_params`]). Does **not** zero `grad` first.
    fn grad(&self, x: &FeatureVec, y: f32, grad: &mut [f32]);

    /// Fused single-example SGD step: `params -= lr * ∇loss`.
    ///
    /// The default materializes a dense gradient; linear models override it
    /// with a sparse update.
    fn sgd_step(&mut self, x: &FeatureVec, y: f32, lr: f32) {
        let mut g = vec![0.0f32; self.num_params()];
        self.grad(x, y, &mut g);
        for (p, gi) in self.params_mut().iter_mut().zip(&g) {
            *p -= lr * gi;
        }
    }

    /// Fused batch of per-tuple SGD steps: for each tuple in order,
    /// accumulate its pre-update loss into `loss_sum` and apply
    /// [`Model::sgd_step`].
    ///
    /// The engine trains through [`Model::sgd_rows`]; this entry point over
    /// `Arc`-shared tuples stays for callers outside the engine. The loss
    /// accumulation order and the update sequence are exactly the
    /// per-tuple loop's, so results are bit-identical to it.
    fn sgd_batch(&mut self, batch: &[TupleRef], lr: f32, loss_sum: &mut f64) {
        for r in batch {
            *loss_sum += self.loss(&r.features, r.label);
            self.sgd_step(&r.features, r.label, lr);
        }
    }

    /// Per-tuple SGD over borrowed rows of a columnar batch: for each row
    /// in order, accumulate its pre-update loss into `loss_sum` and apply
    /// [`Model::sgd_step`]. The executor's training kernel.
    ///
    /// The default copies each row into one reused scratch [`FeatureVec`]
    /// and calls [`Model::loss`]/[`Model::sgd_step`], so a model (or a
    /// decorator) that implements only those stays bit-identical. Linear,
    /// softmax and MLP models override it to run straight on the borrowed
    /// rows; overrides must produce the same bits as the default.
    fn sgd_rows(&mut self, rows: RowSlice<'_>, lr: f32, loss_sum: &mut f64) {
        let mut x = FeatureVec::Dense(Vec::new());
        for r in rows {
            r.features.copy_into(&mut x);
            *loss_sum += self.loss(&x, r.label);
            self.sgd_step(&x, r.label, lr);
        }
    }

    /// Predicted label: sign (±1) for binary classifiers, class index for
    /// multi-class, real value for regression.
    fn predict_label(&self, x: &FeatureVec) -> f32;

    /// Batched inference over borrowed rows: the predicted label of every
    /// row, appended to `out` in order (the serving and evaluation paths'
    /// unit of work). The default copies each row into a reused scratch
    /// [`FeatureVec`] and calls [`Model::predict_label`]; overrides must be
    /// bit-identical to it.
    fn predict_rows(&self, rows: RowSlice<'_>, out: &mut Vec<f32>) {
        let mut x = FeatureVec::Dense(Vec::new());
        out.reserve(rows.len());
        for r in rows {
            r.features.copy_into(&mut x);
            out.push(self.predict_label(&x));
        }
    }

    /// Batched inference over owned vectors: the predicted label of every
    /// feature vector in `xs`, appended to `out` in order. The engine
    /// serves through [`Model::predict_rows`]; this entry point stays for
    /// callers outside the engine. Overrides must stay bit-identical to
    /// the default.
    fn predict_batch_into(&self, xs: &[&FeatureVec], out: &mut Vec<f32>) {
        out.reserve(xs.len());
        for x in xs {
            out.push(self.predict_label(x));
        }
    }

    /// FLOPs per example for inference (forward pass only), for the
    /// serving path's simulated compute clock. Defaults to half the
    /// training estimate (which covers forward + backward).
    fn inference_flops_per_example(&self, nnz: usize) -> f64 {
        self.flops_per_example(nnz) / 2.0
    }

    /// True for classifiers (accuracy applies), false for regression.
    fn is_classifier(&self) -> bool {
        true
    }

    /// FLOPs per example with `nnz` materialized features (forward +
    /// backward), for the simulated compute clock.
    fn flops_per_example(&self, nnz: usize) -> f64;
}

/// Model identifiers used by configs, the SQL surface, and reports.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Logistic regression (binary, labels ±1).
    LogisticRegression,
    /// Linear SVM with hinge loss (binary, labels ±1).
    Svm,
    /// Ordinary least squares via SGD.
    LinearRegression,
    /// Multinomial logistic regression.
    Softmax {
        /// Number of classes.
        classes: usize,
    },
    /// Feed-forward ReLU network ending in softmax.
    Mlp {
        /// Hidden layer widths.
        hidden: Vec<usize>,
        /// Number of classes.
        classes: usize,
    },
}

impl ModelKind {
    /// Short machine name ("lr", "svm", …), also accepted by the SQL parser.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::LogisticRegression => "lr",
            ModelKind::Svm => "svm",
            ModelKind::LinearRegression => "linreg",
            ModelKind::Softmax { .. } => "softmax",
            ModelKind::Mlp { .. } => "mlp",
        }
    }

    /// Whether this kind is convex (GLM) — used by reports and theory.
    pub fn is_convex(&self) -> bool {
        !matches!(self, ModelKind::Mlp { .. })
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelKind::Softmax { classes } => write!(f, "softmax({classes})"),
            ModelKind::Mlp { hidden, classes } => write!(f, "mlp({hidden:?}→{classes})"),
            other => f.write_str(other.name()),
        }
    }
}

/// Build a model of the given kind for `dim` input features.
///
/// `seed` initializes MLP weights; linear models start at zero like the
/// paper's systems.
pub fn build_model(kind: &ModelKind, dim: usize, seed: u64) -> Box<dyn Model> {
    match kind {
        ModelKind::LogisticRegression => Box::new(LinearModel::new(dim, LinearTask::Logistic)),
        ModelKind::Svm => Box::new(LinearModel::new(dim, LinearTask::Hinge)),
        ModelKind::LinearRegression => Box::new(LinearModel::new(dim, LinearTask::Squared)),
        ModelKind::Softmax { classes } => Box::new(SoftmaxRegression::new(dim, *classes)),
        ModelKind::Mlp { hidden, classes } => Box::new(Mlp::new(dim, hidden, *classes, seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_each_kind() {
        let kinds = [
            ModelKind::LogisticRegression,
            ModelKind::Svm,
            ModelKind::LinearRegression,
            ModelKind::Softmax { classes: 3 },
            ModelKind::Mlp {
                hidden: vec![8],
                classes: 3,
            },
        ];
        for k in kinds {
            let m = build_model(&k, 10, 1);
            assert!(m.num_params() > 0, "{k}: no params");
            assert_eq!(m.params().len(), m.num_params());
        }
    }

    #[test]
    fn names_and_convexity() {
        assert_eq!(ModelKind::LogisticRegression.name(), "lr");
        assert_eq!(ModelKind::Svm.name(), "svm");
        assert!(ModelKind::Svm.is_convex());
        assert!(!ModelKind::Mlp {
            hidden: vec![4],
            classes: 2
        }
        .is_convex());
        assert_eq!(ModelKind::Softmax { classes: 5 }.to_string(), "softmax(5)");
    }

    #[test]
    fn batched_prediction_is_bit_identical_to_per_tuple() {
        // Batched entry points must agree with predict_label; any
        // divergence from predict_label would break the hot-reload
        // bit-identity guarantee.
        let kinds = [
            ModelKind::LogisticRegression,
            ModelKind::Svm,
            ModelKind::LinearRegression,
            ModelKind::Softmax { classes: 4 },
            ModelKind::Mlp {
                hidden: vec![6],
                classes: 3,
            },
        ];
        let xs: Vec<FeatureVec> = (0..40)
            .map(|i| {
                FeatureVec::Dense(
                    (0..5)
                        .map(|j| ((i * 7 + j * 3) % 11) as f32 / 3.0 - 1.5)
                        .collect(),
                )
            })
            .collect();
        let refs: Vec<&FeatureVec> = xs.iter().collect();
        for k in kinds {
            let mut m = build_model(&k, 5, 9);
            // Non-trivial parameters so argmax/sign branches are exercised.
            for (i, p) in m.params_mut().iter_mut().enumerate() {
                *p = 0.05 * (i as f32 + 1.0) * if i % 3 == 0 { -1.0 } else { 1.0 };
            }
            let mut batched = Vec::new();
            m.predict_batch_into(&refs, &mut batched);
            let scalar: Vec<f32> = xs.iter().map(|x| m.predict_label(x)).collect();
            assert_eq!(batched, scalar, "{k}");
            assert!(m.inference_flops_per_example(5) <= m.flops_per_example(5));
        }
    }

    #[test]
    fn sgd_batch_is_bit_identical_to_per_tuple_loop() {
        use corgipile_storage::Tuple;
        use std::sync::Arc;
        let kinds = [
            ModelKind::LogisticRegression,
            ModelKind::Svm,
            ModelKind::LinearRegression,
            ModelKind::Softmax { classes: 3 },
            ModelKind::Mlp {
                hidden: vec![5],
                classes: 3,
            },
        ];
        let block: Arc<Vec<Tuple>> = Arc::new(
            (0..30)
                .map(|i| {
                    let label = if matches!(i % 3, 0) { 1.0 } else { -1.0 };
                    Tuple::dense(
                        i,
                        (0..4)
                            .map(|j| ((i * 5 + j * 7) % 13) as f32 / 4.0 - 1.5)
                            .collect(),
                        label,
                    )
                })
                .collect(),
        );
        let refs: Vec<TupleRef> = corgipile_storage::block_refs(&block).collect();
        for k in kinds {
            let mut fused = build_model(&k, 4, 7);
            let mut scalar = build_model(&k, 4, 7);
            let mut fused_loss = 0.0f64;
            let mut scalar_loss = 0.0f64;
            for chunk in refs.chunks(7) {
                fused.sgd_batch(chunk, 0.05, &mut fused_loss);
                for r in chunk {
                    scalar_loss += scalar.loss(&r.features, r.label);
                    scalar.sgd_step(&r.features, r.label, 0.05);
                }
            }
            assert_eq!(fused.params(), scalar.params(), "{k}: params diverged");
            assert_eq!(
                fused_loss.to_bits(),
                scalar_loss.to_bits(),
                "{k}: loss accumulation diverged"
            );
        }
    }

    /// Forwards only the per-example methods, so the batch entry points
    /// run their trait defaults over the inner model.
    struct OldMethodsOnly(Box<dyn Model>);

    impl Model for OldMethodsOnly {
        fn num_params(&self) -> usize {
            self.0.num_params()
        }
        fn params(&self) -> &[f32] {
            self.0.params()
        }
        fn params_mut(&mut self) -> &mut [f32] {
            self.0.params_mut()
        }
        fn loss(&self, x: &FeatureVec, y: f32) -> f64 {
            self.0.loss(x, y)
        }
        fn grad(&self, x: &FeatureVec, y: f32, grad: &mut [f32]) {
            self.0.grad(x, y, grad)
        }
        fn sgd_step(&mut self, x: &FeatureVec, y: f32, lr: f32) {
            self.0.sgd_step(x, y, lr)
        }
        fn predict_label(&self, x: &FeatureVec) -> f32 {
            self.0.predict_label(x)
        }
        fn flops_per_example(&self, nnz: usize) -> f64 {
            self.0.flops_per_example(nnz)
        }
    }

    #[test]
    fn row_kernels_are_bit_identical_to_per_tuple_methods() {
        use corgipile_storage::{Tuple, TupleBatch};
        let kinds = [
            ModelKind::LogisticRegression,
            ModelKind::Svm,
            ModelKind::LinearRegression,
            ModelKind::Softmax { classes: 3 },
            ModelKind::Mlp {
                hidden: vec![5],
                classes: 3,
            },
        ];
        // Dense and sparse rows, labels valid for every kind (0/1/2 are
        // class indices; the binary models treat them as raw targets).
        let tuples: Vec<Tuple> = (0..40u64)
            .map(|i| {
                let label = (i % 3) as f32;
                if i % 4 == 0 {
                    Tuple::sparse(i, 6, vec![1, (2 + i % 4) as u32], vec![0.5, -1.25], label)
                } else {
                    Tuple::dense(
                        i,
                        (0..6)
                            .map(|j| ((i * 5 + j * 7) % 13) as f32 / 4.0 - 1.5)
                            .collect(),
                        label,
                    )
                }
            })
            .collect();
        let batch = TupleBatch::from_tuples(&tuples);
        for k in kinds {
            let mut rows = build_model(&k, 6, 7);
            let mut scalar = build_model(&k, 6, 7);
            let mut defaults = OldMethodsOnly(build_model(&k, 6, 7));
            let (mut l_rows, mut l_scalar, mut l_defaults) = (0.0f64, 0.0f64, 0.0f64);
            for start in (0..tuples.len()).step_by(7) {
                let end = (start + 7).min(tuples.len());
                rows.sgd_rows(batch.slice(start..end), 0.05, &mut l_rows);
                defaults.sgd_rows(batch.slice(start..end), 0.05, &mut l_defaults);
                for t in &tuples[start..end] {
                    l_scalar += scalar.loss(&t.features, t.label);
                    scalar.sgd_step(&t.features, t.label, 0.05);
                }
            }
            assert_eq!(rows.params(), scalar.params(), "{k}: params diverged");
            assert_eq!(defaults.params(), scalar.params(), "{k}: default diverged");
            assert_eq!(l_rows.to_bits(), l_scalar.to_bits(), "{k}: loss diverged");
            assert_eq!(l_defaults.to_bits(), l_scalar.to_bits(), "{k}");

            let (mut p_rows, mut p_defaults) = (Vec::new(), Vec::new());
            rows.predict_rows(batch.rows(), &mut p_rows);
            OldMethodsOnly(rows).predict_rows(batch.rows(), &mut p_defaults);
            let p_scalar: Vec<f32> = tuples
                .iter()
                .map(|t| scalar.predict_label(&t.features))
                .collect();
            assert_eq!(p_rows, p_scalar, "{k}: predictions diverged");
            assert_eq!(p_defaults, p_scalar, "{k}");
        }
    }

    #[test]
    fn default_sgd_step_matches_manual_gradient_descent() {
        let mut m = build_model(&ModelKind::LogisticRegression, 3, 0);
        let x = FeatureVec::Dense(vec![1.0, -1.0, 0.5]);
        let mut g = vec![0.0; m.num_params()];
        m.grad(&x, 1.0, &mut g);
        let expect: Vec<f32> = m
            .params()
            .iter()
            .zip(&g)
            .map(|(p, gi)| p - 0.1 * gi)
            .collect();
        m.sgd_step(&x, 1.0, 0.1);
        for (a, b) in m.params().iter().zip(&expect) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
