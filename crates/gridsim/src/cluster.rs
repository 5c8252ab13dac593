//! Descriptions of the simulated machine room.

use std::fmt;

/// A single compute node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// Node hostname (e.g. `node01`).
    pub name: String,
    /// Logical CPU count (the paper's nodes expose 48).
    pub cores: usize,
    /// Memory in GiB (informational; used for validation only).
    pub mem_gib: usize,
}

impl NodeSpec {
    /// Build a node spec.
    pub fn new(name: impl Into<String>, cores: usize, mem_gib: usize) -> Self {
        Self {
            name: name.into(),
            cores,
            mem_gib,
        }
    }
}

impl fmt::Display for NodeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} cores, {} GiB)",
            self.name, self.cores, self.mem_gib
        )
    }
}

/// A named collection of nodes — the whole simulated cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Cluster name (appears in logs).
    pub(crate) name: String,
    /// Member nodes.
    pub nodes: Vec<NodeSpec>,
}

impl ClusterSpec {
    /// A homogeneous cluster of `n_nodes` identical nodes.
    pub fn homogeneous(
        name: impl Into<String>,
        n_nodes: usize,
        cores: usize,
        mem_gib: usize,
    ) -> Self {
        let nodes = (0..n_nodes)
            .map(|i| NodeSpec::new(format!("node{:02}", i + 1), cores, mem_gib))
            .collect();
        Self {
            name: name.into(),
            nodes,
        }
    }

    /// The paper's evaluation cluster: 3 nodes × 48 logical CPUs × 126 GiB.
    pub fn paper_cluster() -> Self {
        Self::homogeneous("dept-hpc", 3, 48, 126)
    }

    /// A small cluster sized for laptop-scale tests: `n_nodes` × `cores`.
    pub fn small(n_nodes: usize, cores: usize) -> Self {
        Self::homogeneous("testgrid", n_nodes, cores, 16)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total logical cores across the cluster.
    pub fn total_cores(&self) -> usize {
        self.nodes.iter().map(|n| n.cores).sum()
    }

    /// Validate basic sanity (non-empty, every node has cores).
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err(format!("cluster {:?} has no nodes", self.name));
        }
        for node in &self.nodes {
            if node.cores == 0 {
                return Err(format!("node {:?} has zero cores", node.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_builds_numbered_nodes() {
        let c = ClusterSpec::homogeneous("c", 3, 8, 16);
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.nodes[0].name, "node01");
        assert_eq!(c.nodes[2].name, "node03");
        assert_eq!(c.total_cores(), 24);
    }

    #[test]
    fn paper_cluster_matches_hardware_section() {
        let c = ClusterSpec::paper_cluster();
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.nodes[0].cores, 48);
        assert_eq!(c.nodes[0].mem_gib, 126);
        assert_eq!(c.total_cores(), 144);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_specs() {
        let empty = ClusterSpec {
            name: "x".into(),
            nodes: vec![],
        };
        assert!(empty.validate().is_err());
        let zero = ClusterSpec {
            name: "x".into(),
            nodes: vec![NodeSpec::new("n", 0, 1)],
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn display_formats() {
        let n = NodeSpec::new("node01", 48, 126);
        assert_eq!(n.to_string(), "node01 (48 cores, 126 GiB)");
    }
}
