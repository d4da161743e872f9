package main

import (
	"fmt"
	"path/filepath"
	"time"

	"psmkit/internal/experiment"
	"psmkit/internal/obs"
	"psmkit/internal/trace"
)

// tracedOffline runs the traced pass on the long-TS inputs: the 16
// traces simulated again in-process, the four psmgen flows over the CSV
// files tracegen wrote, and the four AES traces as upload sessions.
// bench.trace_overhead_ratio compares the traced flows' wall time with
// the untraced psmgen total.
func (b *bench) tracedOffline(sets []ipSet, refs [][]byte, untracedGen float64) error {
	lr := newLayerRun()
	var jobs []simJob
	aes := -1
	for i, s := range sets {
		if s.c.Name == "AES" {
			aes = i
		}
		for p := range s.seeds {
			jobs = append(jobs, simJob{c: s.c, seed: s.seeds[p], n: s.ns[p], keep: s.c.Name == "AES"})
		}
	}
	fts, pws, err := lr.simulate(jobs)
	if !b.op("traced simulate", err) {
		return err
	}

	var gen time.Duration
	for i, s := range sets {
		js, d, err := lr.build(s.funcs, s.powers, s.inputs)
		if !b.op("traced build "+s.c.Name, err) {
			return err
		}
		gen += d
		b.checkBytes("traced build "+s.c.Name, js, refs[i])
	}

	var ps []payload
	for i, ft := range fts {
		if ft == nil {
			continue
		}
		data, err := encodePayload(ft, pws[i], trace.InputColumns(ft, sets[aes].c.New()))
		if !b.op("encode session", err) {
			return err
		}
		k := len(ps) + 1
		ps = append(ps, payload{k: k, id: fmt.Sprintf("aes-%d", k), data: data})
	}
	// The sessions carry the simulator's powers at full precision, the
	// CSV files a rounded text form: the sessions get their own
	// references.
	if _, _, err := b.tracedSessions(lr, ps, sets[aes].inputs, "longts-aes"); err != nil {
		return err
	}
	b.overhead(seconds(gen), untracedGen, "psmgen flows in-process")
	return nil
}

// tracedServe runs the traced pass on the first round's four AES
// sessions: simulated again in-process and written as CSV for the
// offline flow, then fed to the engine and to the shard coordinator.
// bench.trace_overhead_ratio compares the traced shard path with the
// untraced gen_s.
func (b *bench) tracedServe(ps []payload, inputs []string, untracedGen float64) error {
	lr := newLayerRun()
	aes, err := experiment.CaseByName("AES")
	if err != nil {
		return err
	}
	var jobs []simJob
	var funcs, powers []string
	for _, p := range ps {
		prefix := filepath.Join(b.dir, "traced-"+p.id)
		jobs = append(jobs, simJob{c: aes, seed: serveSeed(aes, b.seed, 0, p.k), n: sessionInstants, csv: prefix})
		funcs = append(funcs, prefix+".func.csv")
		powers = append(powers, prefix+".power.csv")
	}
	if _, _, err := lr.simulate(jobs); !b.op("traced simulate", err) {
		return err
	}
	js, _, err := lr.build(funcs, powers, inputs)
	if !b.op("traced build AES", err) {
		return err
	}
	// The CSV files carry the power values as CSV text, so the build's
	// reference is the batch flow over those files, not the sessions.
	want, err := b.csvRef("traced-csv", ipSet{c: aes, funcs: funcs, powers: powers})
	if !b.op("reference", err) {
		return err
	}
	b.checkBytes("traced build AES", js, want)

	_, ss, err := b.tracedSessions(lr, ps, inputs, roundSet(0))
	if err != nil {
		return err
	}
	b.overhead(seconds(ss.toModel), untracedGen, "shard ingest to first rendered model in-process")
	fmt.Fprintf(b.out, "shard.snapshot_repeat_s %.3f s against untraced repeat_model_s %.3f s (%.0f%%)\n",
		b.layer["shard.snapshot_repeat_s"], b.e2e["repeat_model_s"], 100*b.layer["shard.snapshot_repeat_s"]/b.e2e["repeat_model_s"])
	return nil
}

func (b *bench) overhead(traced, untraced float64, what string) {
	b.layer["bench.trace_overhead_ratio"] = traced / untraced
	fmt.Fprintf(b.out, "traced %s: %.3f s; untraced gen_s %.3f s; bench.trace_overhead_ratio %.3f\n",
		what, traced, untraced, traced/untraced)
}

// tracedSessions drives the engine and the shard coordinator with the
// sessions, checks both models against the references for their fold
// orders (cached under set), and fills every per-layer metric.
func (b *bench) tracedSessions(lr *layerRun, ps []payload, inputs []string, set string) (engineStats, shardStats, error) {
	es, eacks, emodel, err := lr.engine(ps, inputs)
	if !b.op("traced engine", err) {
		return es, shardStats{}, err
	}
	want, err := b.payloadRef(set, ps, foldOrder(eacks))
	if !b.op("reference", err) {
		return es, shardStats{}, err
	}
	b.checkBytes("traced engine model", emodel, want)

	ss, sacks, smodel, err := lr.shards(ps, inputs)
	if !b.op("traced shards", err) {
		return es, ss, err
	}
	want, err = b.payloadRef(set, ps, foldOrder(sacks))
	if !b.op("reference", err) {
		return es, ss, err
	}
	b.checkBytes("traced cross-shard model", smodel, want)
	fmt.Fprintf(b.out, "traced fold orders: engine %s; shards %s\n", orderString(ps, foldOrder(eacks)), orderString(ps, foldOrder(sacks)))

	b.layerMetrics(lr, es, ss)
	return es, ss, nil
}

// layerMetrics turns the span tree, the registries and the parts'
// accounting into the per-layer metrics.
func (b *bench) layerMetrics(lr *layerRun, es engineStats, ss shardStats) {
	root := lr.tr.Summary()
	top := func(name string) float64 { return spanTotal(root.Find(name), name).Seconds() }
	under := func(parent, name string) float64 { return spanTotal(root.Find(parent), name).Seconds() }
	count := func(reg *obs.Registry, name string) float64 { return float64(reg.Counter(name).Value()) }
	L := b.layer

	L["power.simulate_s"] = top("power.simulate")
	L["power.cycles_per_s"] = float64(lr.cycles) / L["power.simulate_s"]
	L["trace.read_s"] = top("trace.read")
	L["trace.read_mb_per_s"] = float64(lr.readBytes) / 1e6 / L["trace.read_s"]
	L["mining.mine_s"] = under("pipeline.chains", "mine")
	L["mining.props"] = count(lr.reg, "mining_props_total")
	L["psm.generate_s"] = under("pipeline.chains", "generate")
	L["psm.simplify_s"] = under("pipeline.chains", "simplify")
	L["psm.simplify_states_out"] = float64(lr.statesOut)
	L["psm.pool_s"] = under("pipeline.join", "join.pool")
	L["psm.pooled_states"] = float64(lr.statesOut) // Pool concatenates the simplified chains
	L["psm.collapse_s"] = under("pipeline.join", "collapse")
	L["psm.merge_checks"] = count(lr.reg, "psm_merge_checks_total")
	L["psm.merge_evals"] = count(lr.reg, "psm_merge_evals_total")
	L["psm.merge_eval_ratio"] = L["psm.merge_evals"] / L["psm.merge_checks"]
	L["psm.calibrate_s"] = top("psm.calibrate")
	L["psm.calibration_fits"] = count(lr.reg, "psm_calibration_fits_total")
	L["check.verify_s"] = top("check.verify")
	L["powersim.run_s"] = top("powersim.run")
	L["powersim.instants_per_s"] = float64(lr.selfInstants) / L["powersim.run_s"]
	L["psm.write_s"] = top("psm.write")
	L["psm.model_bytes"] = float64(lr.modelBytes)

	L["stream.scan_s"] = seconds(es.scan)
	L["stream.parse_s"] = seconds(es.parse)
	L["stream.reduce_s"] = seconds(es.reduce)
	L["stream.close_s"] = seconds(es.close)
	L["stream.snapshot_first_s"] = seconds(es.first)
	L["stream.snapshot_repeat_s"] = median(es.repeats)
	L["stream.rebuilds"] = float64(es.rebuilds)
	L["stream.snapshots_delta"] = float64(es.deltas)
	L["serve.verify_s"] = median(lr.verify)
	L["serve.render_s"] = median(lr.render)
	L["serve.model_bytes"] = float64(lr.modelJSONBytes)

	var maxRec, total int64
	for _, r := range ss.records {
		maxRec = max(maxRec, r)
		total += r
	}
	L["shard.open_s"] = seconds(ss.open)
	L["shard.append_wait_s"] = seconds(ss.appendWait)
	L["shard.close_wait_s"] = seconds(ss.closeWait)
	L["shard.records_max"] = float64(maxRec)
	L["shard.skew"] = float64(maxRec) / (float64(total) / float64(len(ss.records)))
	L["shard.shed"] = float64(ss.shed)
	L["shard.snapshot_first_s"] = seconds(ss.first)
	L["shard.snapshot_repeat_s"] = median(ss.repeats)
	L["shard.merge_evals"] = count(lr.shardSnapReg, "psm_merge_evals_total")

	fmt.Fprintf(b.out, "traced shard records %v (skew %.3f, %d repeats); engine snapshot repeats %d\n",
		ss.records, L["shard.skew"], len(ss.repeats), len(es.repeats))
	blocking := L["trace.read_s"] + L["mining.mine_s"] + L["psm.simplify_s"] + L["psm.collapse_s"] + L["powersim.run_s"]
	flow := top("trace.read") + top("pipeline.chains") + top("pipeline.join") + top("psm.calibrate") +
		top("check.verify") + top("psm.write") + top("powersim.run")
	fmt.Fprintf(b.out, "traced offline flow %.3f s; read+mine+simplify+collapse+powersim %.3f s (%.0f%%)\n",
		flow, blocking, 100*blocking/flow)
}

// spanTotal sums the time of every span called name in the subtree.
func spanTotal(n *obs.Summary, name string) time.Duration {
	if n == nil {
		return 0
	}
	var d time.Duration
	if n.Name == name {
		d += n.Total
	}
	for _, c := range n.Children {
		d += spanTotal(c, name)
	}
	return d
}
