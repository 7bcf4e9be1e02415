package corelet

import (
	"fmt"

	"repro/internal/isa"
)

// Corelet is a single corelet, backed by a one-corelet Cluster. Processors
// build whole Clusters directly; this wrapper keeps the original
// one-object-per-corelet API for unit tests and small harnesses.
type Corelet struct {
	cl *Cluster
}

// New builds one corelet, decoding prog against lat privately.
func New(ids IDs, prog *isa.Program, localBytes int, lat Latencies, port GlobalPort, read Reader) (*Corelet, error) {
	code, err := Decode(prog, lat)
	if err != nil {
		return nil, err
	}
	return NewDecoded(ids, code, localBytes, lat, port, read)
}

// NewDecoded builds one corelet over a shared predecoded code image. The
// IDs place the corelet inside its (possibly larger) processor for CSR
// purposes.
func NewDecoded(ids IDs, code *Code, localBytes int, lat Latencies, port GlobalPort, read Reader) (*Corelet, error) {
	if ids.NumCorelets <= 0 || ids.Corelet < 0 || ids.Corelet >= ids.NumCorelets {
		return nil, fmt.Errorf("corelet: bad IDs %+v", ids)
	}
	cl, err := NewCluster(Config{
		Corelets:   1,
		Contexts:   ids.NumContexts,
		LocalBytes: localBytes,
		Latencies:  lat,
	}, code, []GlobalPort{port}, read)
	if err != nil {
		return nil, err
	}
	cl.coreletBase = ids.Corelet
	cl.numCore = ids.NumCorelets
	return &Corelet{cl: cl}, nil
}

// Tick advances the corelet one compute cycle.
func (c *Corelet) Tick() { c.cl.tickCore(0) }

// Halted reports whether all contexts have executed HALT.
func (c *Corelet) Halted() bool { return c.cl.CoreHalted(0) }

// Stats returns the corelet's execution counters.
func (c *Corelet) Stats() Stats { return c.cl.Stats() }

// WriteLocal stores a word into local memory (host-side, at launch).
func (c *Corelet) WriteLocal(addr uint32, v uint32) { c.cl.WriteLocal(0, addr, v) }

// ReadLocal fetches a word of local memory (host-side, after the run).
func (c *Corelet) ReadLocal(addr uint32) uint32 { return c.cl.ReadLocal(0, addr) }

// SetBarrier installs the processor-wide barrier coordinator.
func (c *Corelet) SetBarrier(f BarrierFunc) { c.cl.SetBarrier(f) }

// SetTracer installs an instruction-issue observer (nil = off).
func (c *Corelet) SetTracer(t Tracer) { c.cl.SetTracer(0, t) }
