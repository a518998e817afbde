//! Transport configuration profiles.

/// The one transport knob: DCTCP or plain TCP.
///
/// Everything else mirrors the paper's methodology (§5.1) and is a
/// constant of the sender: DCTCP with an initial window of 10 packets
/// and a 10 ms initial/minimum RTO.
#[derive(Clone, Copy, Debug)]
pub struct TransportCfg {
    /// Whether the sender reacts to ECN echoes (DCTCP). When false the
    /// sender is plain TCP NewReno and its packets are not ECN-capable.
    pub ecn: bool,
}

impl TransportCfg {
    /// DCTCP as evaluated in the paper.
    pub fn dctcp() -> TransportCfg {
        TransportCfg { ecn: true }
    }

    /// Plain TCP NewReno (§5.4's "different transport protocols").
    pub fn tcp() -> TransportCfg {
        TransportCfg { ecn: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles() {
        assert!(TransportCfg::dctcp().ecn);
        assert!(!TransportCfg::tcp().ecn);
    }
}
