//! Setup documentation (Rule 9 and the Table 1 checklist).
//!
//! Table 1 of the paper grades 95 papers on nine experimental-design
//! classes (hardware: processor / memory / network; software: compiler /
//! runtime / filesystem; configuration: input / measurement setup / code
//! availability). [`EnvironmentDoc`] is that checklist as a struct: an
//! experiment report embeds one, and [`EnvironmentDoc::missing_classes`]
//! tells the rule auditor which classes an experimenter failed to
//! document.

/// The nine documentation classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DocumentationClass {
    /// Processor model / accelerator.
    Processor,
    /// RAM size / type / bus.
    Memory,
    /// NIC model / network topology, latency, bandwidth.
    Network,
    /// Compiler version / flags.
    Compiler,
    /// Kernel / library versions.
    Runtime,
    /// Filesystem / storage.
    Filesystem,
    /// Software and input configuration.
    Input,
    /// Measurement setup (timers, sync, repetitions).
    MeasurementSetup,
    /// Source code available online.
    CodeAvailability,
}

impl DocumentationClass {
    /// All nine classes, in Table 1 order.
    pub const ALL: [DocumentationClass; 9] = [
        DocumentationClass::Processor,
        DocumentationClass::Memory,
        DocumentationClass::Network,
        DocumentationClass::Compiler,
        DocumentationClass::Runtime,
        DocumentationClass::Filesystem,
        DocumentationClass::Input,
        DocumentationClass::MeasurementSetup,
        DocumentationClass::CodeAvailability,
    ];

    /// The row label used in Table 1.
    pub fn label(&self) -> &'static str {
        match self {
            DocumentationClass::Processor => "Processor Model / Accelerator",
            DocumentationClass::Memory => "RAM Size / Type / Bus Infos",
            DocumentationClass::Network => "NIC Model / Network Infos",
            DocumentationClass::Compiler => "Compiler Version / Flags",
            DocumentationClass::Runtime => "Kernel / Libraries Version",
            DocumentationClass::Filesystem => "Filesystem / Storage",
            DocumentationClass::Input => "Software and Input",
            DocumentationClass::MeasurementSetup => "Measurement Setup",
            DocumentationClass::CodeAvailability => "Code Available Online",
        }
    }
}

/// One documented class: either a description, or an explicit statement
/// that the class does not affect the experiment ("a shared memory
/// experiment does not need to describe the network" — which Table 1 also
/// counts as documented).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassDoc {
    /// The class is described by this text.
    Documented(String),
    /// The class is irrelevant to this experiment, with a justification.
    NotApplicable(String),
    /// The class was not documented (the Table 1 gap).
    Missing,
}

impl ClassDoc {
    /// Whether this class counts as documented for the Rule 9 audit.
    pub fn is_covered(&self) -> bool {
        !matches!(self, ClassDoc::Missing)
    }
}

/// The full Rule-9 environment documentation of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvironmentDoc {
    entries: Vec<(DocumentationClass, ClassDoc)>,
}

impl Default for EnvironmentDoc {
    fn default() -> Self {
        Self::new()
    }
}

impl EnvironmentDoc {
    /// Creates an empty (all-missing) documentation record.
    pub fn new() -> Self {
        Self {
            entries: DocumentationClass::ALL
                .iter()
                .map(|&c| (c, ClassDoc::Missing))
                .collect(),
        }
    }

    /// Documents a class.
    pub fn document(mut self, class: DocumentationClass, text: &str) -> Self {
        self.set(class, ClassDoc::Documented(text.to_owned()));
        self
    }

    /// Marks a class as not applicable, with a reason.
    pub fn not_applicable(mut self, class: DocumentationClass, reason: &str) -> Self {
        self.set(class, ClassDoc::NotApplicable(reason.to_owned()));
        self
    }

    /// Builds the documentation from a simulated machine description: the
    /// machine spec covers processor, memory, network, compiler and
    /// runtime in one call.
    pub fn from_machine(machine: &scibench_sim::machine::MachineSpec) -> Self {
        let acc = machine
            .node
            .accelerator
            .clone()
            .unwrap_or_else(|| "none".into());
        Self::new()
            .document(
                DocumentationClass::Processor,
                &format!(
                    "{} ({} cores), accelerator: {acc}",
                    machine.node.cpu_model, machine.node.cores
                ),
            )
            .document(
                DocumentationClass::Memory,
                &format!("{} GiB {}", machine.node.mem_gib, machine.node.mem_type),
            )
            .document(
                DocumentationClass::Network,
                &format!(
                    "{} ({:?}), {:.0} ns injection, {:.0} ns/hop, {:.1} GB/s",
                    machine.network.name,
                    machine.network.topology,
                    machine.network.injection_ns,
                    machine.network.per_hop_ns,
                    machine.network.bandwidth_bytes_per_ns
                ),
            )
            .document(DocumentationClass::Compiler, &machine.software)
            .document(DocumentationClass::Runtime, &machine.software)
    }

    fn set(&mut self, class: DocumentationClass, doc: ClassDoc) {
        for (c, d) in &mut self.entries {
            if *c == class {
                *d = doc;
                return;
            }
        }
    }

    /// The documentation state of one class.
    pub fn get(&self, class: DocumentationClass) -> &ClassDoc {
        &self
            .entries
            .iter()
            .find(|(c, _)| *c == class)
            .expect("all classes initialized")
            .1
    }

    /// Classes that are neither documented nor excused.
    pub fn missing_classes(&self) -> Vec<DocumentationClass> {
        self.entries
            .iter()
            .filter(|(_, d)| !d.is_covered())
            .map(|(c, _)| *c)
            .collect()
    }

    /// Number of covered classes, 0..=9 — the per-paper score that
    /// Table 1's box plots aggregate.
    pub fn coverage_score(&self) -> usize {
        self.entries.iter().filter(|(_, d)| d.is_covered()).count()
    }

    /// Renders the checklist as text (✓ documented, ~ not applicable,
    /// ✗ missing).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (c, d) in &self.entries {
            let (mark, detail) = match d {
                ClassDoc::Documented(t) => ("ok ", t.as_str()),
                ClassDoc::NotApplicable(r) => ("n/a", r.as_str()),
                ClassDoc::Missing => ("MISSING", ""),
            };
            out.push_str(&format!("[{mark}] {}: {detail}\n", c.label()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scibench_sim::machine::MachineSpec;

    #[test]
    fn new_doc_is_all_missing() {
        let d = EnvironmentDoc::new();
        assert_eq!(d.coverage_score(), 0);
        assert_eq!(d.missing_classes().len(), 9);
    }

    #[test]
    fn documenting_reduces_missing() {
        let d = EnvironmentDoc::new()
            .document(DocumentationClass::Processor, "Xeon E5-2670")
            .not_applicable(DocumentationClass::Network, "shared-memory experiment");
        assert_eq!(d.coverage_score(), 2);
        assert!(!d.missing_classes().contains(&DocumentationClass::Processor));
        assert!(!d.missing_classes().contains(&DocumentationClass::Network));
        assert!(d.missing_classes().contains(&DocumentationClass::Compiler));
    }

    #[test]
    fn not_applicable_counts_as_covered() {
        // Table 1: "we mark the class also with ✓" for irrelevant classes.
        let d = EnvironmentDoc::new().not_applicable(DocumentationClass::Filesystem, "no I/O");
        assert!(d.get(DocumentationClass::Filesystem).is_covered());
    }

    #[test]
    fn from_machine_covers_hardware_and_software() {
        let d = EnvironmentDoc::from_machine(&MachineSpec::piz_dora());
        assert!(d.get(DocumentationClass::Processor).is_covered());
        assert!(d.get(DocumentationClass::Memory).is_covered());
        assert!(d.get(DocumentationClass::Network).is_covered());
        assert!(d.get(DocumentationClass::Compiler).is_covered());
        assert!(d.get(DocumentationClass::Runtime).is_covered());
        // Input, measurement setup, filesystem, code remain the
        // experimenter's responsibility.
        assert_eq!(d.coverage_score(), 5);
    }

    #[test]
    fn render_marks_all_states() {
        let d = EnvironmentDoc::new()
            .document(DocumentationClass::Processor, "CPU-X")
            .not_applicable(DocumentationClass::Filesystem, "no I/O");
        let text = d.render();
        assert!(text.contains("[ok ] Processor Model / Accelerator: CPU-X"));
        assert!(text.contains("[n/a] Filesystem / Storage: no I/O"));
        assert!(text.contains("[MISSING] Compiler Version / Flags"));
    }

    #[test]
    fn all_classes_have_labels() {
        for c in DocumentationClass::ALL {
            assert!(!c.label().is_empty());
        }
        assert_eq!(DocumentationClass::ALL.len(), 9);
    }
}
