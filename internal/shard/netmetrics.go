package shard

import "dsr/internal/obs"

// netMetrics counts the frames and bytes crossing one side of the TCP
// protocol, plus frames that failed to decode. A nil *netMetrics is a
// valid no-op, so the frame paths record unconditionally. Byte counts
// include the 4-byte length prefix — they are wire bytes, not payload
// bytes.
type netMetrics struct {
	framesIn   *obs.Counter
	framesOut  *obs.Counter
	bytesIn    *obs.Counter
	bytesOut   *obs.Counter
	decodeErrs *obs.Counter
}

// newNetMetrics binds the frame counters for one endpoint side under
// prefix ("net_server" or "net_client"). Nil registry yields nil.
func newNetMetrics(reg *obs.Registry, prefix string) *netMetrics {
	if reg == nil {
		return nil
	}
	return &netMetrics{
		framesIn:   reg.Counter(prefix + "_frames_in_total"),
		framesOut:  reg.Counter(prefix + "_frames_out_total"),
		bytesIn:    reg.Counter(prefix + "_bytes_in_total"),
		bytesOut:   reg.Counter(prefix + "_bytes_out_total"),
		decodeErrs: reg.Counter(prefix + "_decode_errors_total"),
	}
}

// frameIn records one received frame with an n-byte payload.
func (m *netMetrics) frameIn(n int) {
	if m == nil {
		return
	}
	m.framesIn.Inc()
	m.bytesIn.Add(uint64(n) + 4)
}

// frameOut records one written frame with an n-byte payload.
func (m *netMetrics) frameOut(n int) {
	if m == nil {
		return
	}
	m.framesOut.Inc()
	m.bytesOut.Add(uint64(n) + 4)
}

// decodeErr records a frame that arrived but failed to decode.
func (m *netMetrics) decodeErr() {
	if m == nil {
		return
	}
	m.decodeErrs.Inc()
}
