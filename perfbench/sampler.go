package main

import (
	"time"

	"repro/internal/relay"
)

// sampler polls the relays' queue depths and the runtime's heap and
// goroutine gauges during a traced saturating phase.
type sampler struct {
	relays []*relay.Server
	rt     *rt
	quit   chan struct{}
	done   chan struct{}
	result sampleStats
}

// sampleStats summarizes one phase's samples.  Queue depth is per relay
// consumer queue (each hop's one downstream connection).
type sampleStats struct {
	depthSum, depthN int64
	depthMax         int64
	heapMax          uint64
	goroutinesMax    uint64
}

const samplePeriod = 2 * time.Millisecond

func startSampler(relays []*relay.Server) *sampler {
	p := &sampler{relays: relays, rt: newRT(), quit: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *sampler) run() {
	defer close(p.done)
	tick := time.NewTicker(samplePeriod)
	defer tick.Stop()
	for {
		select {
		case <-p.quit:
			return
		case <-tick.C:
		}
		for _, r := range p.relays {
			for _, c := range r.MeshSnapshot().Consumers {
				d := int64(c.QueueDepth)
				p.result.depthSum += d
				p.result.depthN++
				p.result.depthMax = max(p.result.depthMax, d)
			}
		}
		snap := p.rt.read()
		p.result.heapMax = max(p.result.heapMax, snap.heapObjects)
		p.result.goroutinesMax = max(p.result.goroutinesMax, snap.goroutines)
	}
}

// stop ends sampling and waits for the sampler goroutine; result is
// valid afterwards.
func (p *sampler) stop() {
	close(p.quit)
	<-p.done
}
