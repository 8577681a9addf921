//! Configuration types for building deep RNNs.

use crate::error::RnnError;
use crate::gate::GateKind;
use crate::Result;

/// The recurrent cell type of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Long Short-Term Memory cell (Section 2.1.2 of the paper).
    Lstm,
    /// Gated Recurrent Unit cell (Section 2.1.3).
    Gru,
}

impl CellKind {
    /// The gate kinds of a cell of this kind, in evaluation order: the
    /// order of a [`Cell`](crate::Cell)'s gates and of the hoisted
    /// projections its step takes.
    pub fn gate_kinds(self) -> &'static [GateKind] {
        match self {
            CellKind::Lstm => &GateKind::LSTM,
            CellKind::Gru => &GateKind::GRU,
        }
    }

    /// Number of gates per cell (4 for LSTM, 3 for GRU).
    pub fn gates(self) -> usize {
        self.gate_kinds().len()
    }

    /// Whether gate `kind` of this cell reads the cell state `c_{t-1}`
    /// (the LSTM's sigmoid gates, Equations 1, 2 and 5), so it may
    /// carry peephole weights.
    pub fn reads_cell_state(self, kind: GateKind) -> bool {
        self == CellKind::Lstm && kind != GateKind::Candidate
    }

    /// Human-readable name as used in Table 1 of the paper.
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Lstm => "LSTM",
            CellKind::Gru => "GRU",
        }
    }
}

/// Whether a layer processes the sequence in one or both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Direction {
    /// Forward pass only (`x_1 .. x_N`).
    #[default]
    Unidirectional,
    /// Forward and backward passes whose outputs are concatenated
    /// (e.g. the EESEN BiLSTM network of Table 1).
    Bidirectional,
}

impl Direction {
    /// Number of cells per layer (1 or 2).
    pub fn cells_per_layer(self) -> usize {
        match self {
            Direction::Unidirectional => 1,
            Direction::Bidirectional => 2,
        }
    }
}

/// Configuration of a deep RNN: cell type, sizes, depth and direction.
///
/// Built with a fluent API:
///
/// ```
/// use nfm_rnn::{DeepRnnConfig, CellKind, Direction};
///
/// let cfg = DeepRnnConfig::new(CellKind::Gru, 161, 800)
///     .layers(5)
///     .direction(Direction::Unidirectional)
///     .output_size(29);
/// assert_eq!(cfg.layer_count(), 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeepRnnConfig {
    cell: CellKind,
    input_size: usize,
    hidden_size: usize,
    layers: usize,
    direction: Direction,
    peepholes: bool,
    output_size: Option<usize>,
}

impl DeepRnnConfig {
    /// Creates a single-layer, unidirectional configuration.
    pub fn new(cell: CellKind, input_size: usize, hidden_size: usize) -> Self {
        DeepRnnConfig {
            cell,
            input_size,
            hidden_size,
            layers: 1,
            direction: Direction::Unidirectional,
            peepholes: cell == CellKind::Lstm,
            output_size: None,
        }
    }

    /// Sets the number of stacked layers.
    pub fn layers(mut self, layers: usize) -> Self {
        self.layers = layers;
        self
    }

    /// Sets the direction of every layer.
    pub fn direction(mut self, direction: Direction) -> Self {
        self.direction = direction;
        self
    }

    /// Enables or disables peephole connections (LSTM only).
    pub fn peepholes(mut self, peepholes: bool) -> Self {
        self.peepholes = peepholes;
        self
    }

    /// Adds a dense classification/projection head of the given width.
    pub fn output_size(mut self, output_size: usize) -> Self {
        self.output_size = Some(output_size);
        self
    }

    /// The configured cell type.
    pub fn cell(&self) -> CellKind {
        self.cell
    }

    /// Width of the first layer's input.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Neurons per cell.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Number of stacked layers.
    pub fn layer_count(&self) -> usize {
        self.layers
    }

    /// Direction of the layers.
    pub fn direction_kind(&self) -> Direction {
        self.direction
    }

    /// Whether LSTM peepholes are enabled.
    pub fn has_peepholes(&self) -> bool {
        self.peepholes
    }

    /// Width of the dense head, if any.
    pub fn head_size(&self) -> Option<usize> {
        self.output_size
    }

    /// Total neuron evaluations per timestep across the whole stack
    /// (the denominator of the paper's computation-reuse percentages).
    pub fn neuron_evaluations_per_step(&self) -> usize {
        self.layers * self.direction.cells_per_layer() * self.hidden_size * self.cell.gates()
    }

    /// Approximate total weight count of the recurrent stack.
    pub fn weight_count(&self) -> usize {
        let per_dir_layer =
            |input: usize| self.cell.gates() * self.hidden_size * (input + self.hidden_size);
        let mut total = 0usize;
        let mut layer_input = self.input_size;
        for _ in 0..self.layers {
            total += self.direction.cells_per_layer() * per_dir_layer(layer_input);
            layer_input = self.hidden_size * self.direction.cells_per_layer();
        }
        total
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RnnError::InvalidConfig`] if any dimension is zero.
    pub fn validate(&self) -> Result<()> {
        if self.input_size == 0 || self.hidden_size == 0 {
            return Err(RnnError::InvalidConfig {
                what: "input and hidden sizes must be positive".into(),
            });
        }
        if self.layers == 0 {
            return Err(RnnError::InvalidConfig {
                what: "at least one layer is required".into(),
            });
        }
        if self.output_size == Some(0) {
            return Err(RnnError::InvalidConfig {
                what: "output size must be positive when present".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_kind_properties() {
        assert_eq!(CellKind::Lstm.gates(), 4);
        assert_eq!(CellKind::Gru.gates(), 3);
        assert_eq!(CellKind::Lstm.name(), "LSTM");
        assert_eq!(CellKind::Gru.name(), "GRU");
        assert!(CellKind::Lstm.reads_cell_state(GateKind::Output));
        assert!(!CellKind::Lstm.reads_cell_state(GateKind::Candidate));
        assert!(!CellKind::Gru.reads_cell_state(GateKind::Update));
    }

    #[test]
    fn direction_cells() {
        assert_eq!(Direction::Unidirectional.cells_per_layer(), 1);
        assert_eq!(Direction::Bidirectional.cells_per_layer(), 2);
        assert_eq!(Direction::default(), Direction::Unidirectional);
    }

    #[test]
    fn builder_round_trip() {
        let cfg = DeepRnnConfig::new(CellKind::Lstm, 10, 20)
            .layers(3)
            .direction(Direction::Bidirectional)
            .peepholes(false)
            .output_size(5);
        assert_eq!(cfg.cell(), CellKind::Lstm);
        assert_eq!(cfg.input_size(), 10);
        assert_eq!(cfg.hidden_size(), 20);
        assert_eq!(cfg.layer_count(), 3);
        assert_eq!(cfg.direction_kind(), Direction::Bidirectional);
        assert!(!cfg.has_peepholes());
        assert_eq!(cfg.head_size(), Some(5));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn lstm_default_has_peepholes_gru_does_not() {
        assert!(DeepRnnConfig::new(CellKind::Lstm, 4, 4).has_peepholes());
        assert!(!DeepRnnConfig::new(CellKind::Gru, 4, 4).has_peepholes());
    }

    #[test]
    fn neuron_evaluations_per_step_counts_gates_and_directions() {
        let cfg = DeepRnnConfig::new(CellKind::Lstm, 8, 16)
            .layers(2)
            .direction(Direction::Bidirectional);
        // 2 layers * 2 directions * 16 neurons * 4 gates
        assert_eq!(cfg.neuron_evaluations_per_step(), 256);
    }

    #[test]
    fn weight_count_accounts_for_growing_inputs() {
        let cfg = DeepRnnConfig::new(CellKind::Gru, 8, 16).layers(2);
        // layer 0: 3 * 16 * (8 + 16); layer 1 input is 16
        let expected = 3 * 16 * (8 + 16) + 3 * 16 * (16 + 16);
        assert_eq!(cfg.weight_count(), expected);
    }

    #[test]
    fn validation_rejects_zero_dimensions() {
        assert!(DeepRnnConfig::new(CellKind::Lstm, 0, 4).validate().is_err());
        assert!(DeepRnnConfig::new(CellKind::Lstm, 4, 0).validate().is_err());
        assert!(DeepRnnConfig::new(CellKind::Lstm, 4, 4)
            .layers(0)
            .validate()
            .is_err());
        assert!(DeepRnnConfig::new(CellKind::Lstm, 4, 4)
            .output_size(0)
            .validate()
            .is_err());
    }
}
