package fl

import "fmt"

// The paper adopts the synchronous model, citing evidence [14] that it
// trains more efficiently than asynchronous alternatives. This file
// implements the asynchronous counterpart so that claim can be examined in
// the same cost model: devices never wait for a barrier — each one loops
// compute→upload on its own timeline and the parameter server applies
// updates as they arrive. Async delivers more raw updates per second (no
// idle time at all), but its updates are stale: other devices' updates land
// in between, which is what degrades statistical efficiency in practice.

// AsyncResult summarizes an asynchronous run.
type AsyncResult struct {
	// Elapsed is the wall-clock time until the target update count.
	Elapsed float64
	// Updates is the number of model uploads the server received.
	Updates int
	// ComputeEnergy and TxEnergy are summed over all device activity.
	ComputeEnergy, TxEnergy float64
	// PerDeviceUpdates counts each device's contributions — async lets
	// fast devices dominate, a fairness problem the barrier prevents.
	PerDeviceUpdates []int
	// MeanStaleness is the average number of foreign updates applied
	// between a device starting its computation and its own update
	// arriving — the async efficiency tax.
	MeanStaleness float64
}

// UpdateRate returns updates per second.
func (r AsyncResult) UpdateRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Updates) / r.Elapsed
}

// asyncEvent is one device's next upload completion.
type asyncEvent struct {
	finish    float64 // wall-clock completion time
	device    int
	startedAt float64 // when the device read the global model
	computeE  float64
	txE       float64
}

// eventLess orders events by completion time, breaking exact ties by device
// index so simultaneous completions pop in one fixed order regardless of
// heap-internal layout. (finish, device) is a total order, so the pop
// sequence is identical to container/heap's.
func eventLess(a, b asyncEvent) bool {
	if a.finish != b.finish {
		return a.finish < b.finish
	}
	return a.device < b.device
}

// RunAsync simulates asynchronous federated learning from startTime with
// fixed per-device frequencies until the server has received totalUpdates
// model uploads.
func (s *System) RunAsync(startTime float64, freqs []float64, totalUpdates int) (AsyncResult, error) {
	if err := s.Validate(); err != nil {
		return AsyncResult{}, err
	}
	if len(freqs) != s.N() {
		return AsyncResult{}, fmt.Errorf("fl: %d frequencies for %d devices", len(freqs), s.N())
	}
	if totalUpdates <= 0 {
		return AsyncResult{}, fmt.Errorf("fl: target update count %d must be positive", totalUpdates)
	}
	if startTime < 0 {
		return AsyncResult{}, fmt.Errorf("fl: negative start time %v", startTime)
	}
	for i, d := range s.Devices {
		if err := checkFreq(i, freqs[i], d); err != nil {
			return AsyncResult{}, err
		}
	}

	schedule := func(dev int, from float64) (asyncEvent, error) {
		d := s.Devices[dev]
		tcmp := d.ComputeTime(s.Tau, freqs[dev])
		upStart := from + tcmp
		upEnd, err := s.Traces[dev].UploadFinish(upStart, s.ModelBytes)
		if err != nil {
			return asyncEvent{}, fmt.Errorf("fl: device %d upload: %w", dev, err)
		}
		return asyncEvent{
			finish:    upEnd,
			device:    dev,
			startedAt: from,
			computeE:  d.ComputeEnergy(s.Tau, freqs[dev]),
			txE:       d.TxEnergy(upEnd - upStart),
		}, nil
	}

	h := NewHeap(eventLess, s.N())
	for i := range s.Devices {
		ev, err := schedule(i, startTime)
		if err != nil {
			return AsyncResult{}, err
		}
		h.Push(ev)
	}

	res := AsyncResult{PerDeviceUpdates: make([]int, s.N())}
	// arrivalLog records update completion times to compute staleness.
	arrivals := make([]float64, 0, totalUpdates)
	var stalenessSum float64
	for res.Updates < totalUpdates {
		ev := h.Pop()
		res.Updates++
		res.PerDeviceUpdates[ev.device]++
		res.ComputeEnergy += ev.computeE
		res.TxEnergy += ev.txE
		res.Elapsed = ev.finish - startTime
		// Staleness: foreign updates that arrived inside [startedAt, finish).
		var foreign int
		for i := len(arrivals) - 1; i >= 0 && arrivals[i] >= ev.startedAt; i-- {
			foreign++
		}
		stalenessSum += float64(foreign)
		arrivals = append(arrivals, ev.finish)

		next, err := schedule(ev.device, ev.finish)
		if err != nil {
			return AsyncResult{}, err
		}
		h.Push(next)
	}
	res.MeanStaleness = stalenessSum / float64(res.Updates)
	return res, nil
}

// SyncThroughput runs `iters` synchronous iterations with the given fixed
// frequencies and reports the equivalent aggregate metrics, so sync and
// async can be compared on updates/second and energy/update.
func (s *System) SyncThroughput(startTime float64, freqs []float64, iters int) (AsyncResult, error) {
	ses, err := NewSession(s, startTime)
	if err != nil {
		return AsyncResult{}, err
	}
	res := AsyncResult{PerDeviceUpdates: make([]int, s.N())}
	for k := 0; k < iters; k++ {
		it, err := ses.StepInto(freqs)
		if err != nil {
			return AsyncResult{}, err
		}
		res.Updates += s.N()
		res.ComputeEnergy += it.ComputeEnergy
		res.TxEnergy += it.TxEnergy
		for i := range res.PerDeviceUpdates {
			res.PerDeviceUpdates[i]++
		}
	}
	res.Elapsed = ses.Clock - startTime
	// Synchronous updates are never stale: every device trains on the
	// freshest global model.
	res.MeanStaleness = 0
	return res, nil
}
