//! The Table 6 probing-cost model: visibility vs. overhead for four
//! probing strategies on a large leaf-spine fabric.
//!
//! *Visibility* is the number of parallel paths whose condition a sender
//! can see per destination; *overhead* is probe traffic as a fraction of
//! an edge (host–leaf) link's capacity.
//!
//! Model (per §3.1.3 and the numbers in Table 6):
//!
//! * **Piggybacking** (Table 6 cites CLOVE, FlowBender): no probes;
//!   visibility is only what the host's own flows touch — the Table 2
//!   host-pair measurement (< 0.01 flows per path).
//! * **Brute force**: each host probes *every parallel path to every
//!   other host* each interval (host granularity is what failure
//!   patterns like per-pair blackholes would require).
//! * **Power of two choices**: each host probes 2 random paths + the
//!   previous best (3) per destination *host*.
//! * **Hermes**: one probe agent per rack probes 3 paths per destination
//!   *rack* and shares results rack-wide, cutting both the number of
//!   probing hosts and the destination granularity.
//!
//! With the paper's setup (100×100 leaf-spine, 10 Gbps edge links, 64 B
//! probes every 500 µs) this reproduces Table 6's ladder:
//! brute ≈ 100× link capacity, po2c ≈ 3×, Hermes ≈ 3%.

/// Fabric and probing parameters.
#[derive(Clone, Copy, Debug)]
pub struct ProbingCostModel {
    pub n_leaves: usize,
    pub n_spines: usize,
    pub hosts_per_leaf: usize,
    /// Edge link capacity (bits/s).
    pub link_bps: f64,
    /// Probe packet size (bytes).
    pub probe_bytes: f64,
    /// Probe interval (seconds).
    pub interval_s: f64,
    /// Measured host-pair visibility (Table 2) for the piggyback row.
    pub piggyback_visibility: f64,
}

impl Default for ProbingCostModel {
    /// The paper's §3.1.3 setting: "a 100×100 leaf-spine topology with
    /// 10 Gbps link; a probe packet is typically 64 bytes and the probe
    /// interval is set to 500 µs". (The overhead arithmetic of Table 6
    /// is consistent with 100 hosts per rack.)
    fn default() -> ProbingCostModel {
        ProbingCostModel {
            n_leaves: 100,
            n_spines: 100,
            hosts_per_leaf: 100,
            link_bps: 10e9,
            probe_bytes: 64.0,
            interval_s: 500e-6,
            piggyback_visibility: 0.009,
        }
    }
}

/// One row of Table 6.
#[derive(Clone, Debug)]
pub struct ProbingRow {
    pub scheme: &'static str,
    /// Paths visible per destination.
    pub visibility: f64,
    /// Probe traffic / edge link capacity (0 = none).
    pub overhead_frac: f64,
}

impl ProbingCostModel {
    fn probe_bps(&self) -> f64 {
        self.probe_bytes * 8.0 / self.interval_s
    }

    fn n_hosts(&self) -> usize {
        self.n_leaves * self.hosts_per_leaf
    }

    /// Brute force: all paths × all other hosts, from every host.
    pub fn brute_force(&self) -> ProbingRow {
        let streams = (self.n_hosts() - self.hosts_per_leaf) as f64 * self.n_spines as f64;
        ProbingRow {
            scheme: "brute-force",
            visibility: self.n_spines as f64,
            overhead_frac: streams * self.probe_bps() / self.link_bps,
        }
    }

    /// Power of two choices (+1 memory): 3 paths × all other hosts.
    pub fn power_of_two(&self) -> ProbingRow {
        let streams = (self.n_hosts() - self.hosts_per_leaf) as f64 * 3.0;
        ProbingRow {
            scheme: "power-of-two-choices",
            visibility: 3.0,
            overhead_frac: streams * self.probe_bps() / self.link_bps,
        }
    }

    /// Hermes: rack agents, 3 paths × destination racks, shared.
    pub fn hermes(&self) -> ProbingRow {
        let streams = (self.n_leaves - 1) as f64 * 3.0;
        ProbingRow {
            scheme: "hermes",
            visibility: 3.0,
            overhead_frac: streams * self.probe_bps() / self.link_bps,
        }
    }

    /// Piggybacking (no probes at all).
    pub fn piggyback(&self) -> ProbingRow {
        ProbingRow {
            scheme: "piggyback",
            visibility: self.piggyback_visibility,
            overhead_frac: 0.0,
        }
    }

    /// All four rows in Table 6 order.
    pub fn rows(&self) -> Vec<ProbingRow> {
        vec![
            self.piggyback(),
            self.brute_force(),
            self.power_of_two(),
            self.hermes(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_table6_ladder() {
        let m = ProbingCostModel::default();
        let brute = m.brute_force();
        let po2c = m.power_of_two();
        let hermes = m.hermes();
        // Brute force ≈ 100× the link capacity.
        assert!(
            (80.0..130.0).contains(&brute.overhead_frac),
            "brute {:.1}x",
            brute.overhead_frac
        );
        // po2c ≈ 3×.
        assert!(
            (2.5..3.5).contains(&po2c.overhead_frac),
            "po2c {:.2}x",
            po2c.overhead_frac
        );
        // Hermes ≈ 3%.
        assert!(
            (0.02..0.04).contains(&hermes.overhead_frac),
            "hermes {:.4}",
            hermes.overhead_frac
        );
        // "reduces the overhead by over 30× compared to brute force"
        assert!(brute.overhead_frac / po2c.overhead_frac > 30.0);
        // "This further reduces the overhead by 100×"
        let agent_gain = po2c.overhead_frac / hermes.overhead_frac;
        assert!(
            (50.0..200.0).contains(&agent_gain),
            "agent gain {agent_gain}"
        );
        // "over 3000× better than the brute-force approach"
        assert!(brute.overhead_frac / hermes.overhead_frac > 3000.0);
    }

    #[test]
    fn visibility_ladder() {
        let m = ProbingCostModel::default();
        let rows = m.rows();
        assert!(rows[0].visibility < 0.01); // piggyback
        assert_eq!(rows[1].visibility, 100.0); // brute
        assert_eq!(rows[2].visibility, 3.0); // po2c
        assert_eq!(rows[3].visibility, 3.0); // hermes
                                             // "over 300× better visibility than piggybacking"
        assert!(rows[3].visibility / rows[0].visibility > 300.0);
    }
}
