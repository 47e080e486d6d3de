package main

import (
	"fmt"
	"math"
	"time"
)

// coverageTolerance is how far the named server stages may exceed the
// web requests that contain them (timer placement: a stage's clock stops
// before the request's) before the coverage check fails.
const coverageTolerance = 0.01

// layerMetrics derives the per-layer metrics of a traced pass from the
// exact sums and counts of the server's /debug/metrics deltas and the
// benchmark's own click and request spans, and runs the coverage check:
// the server's counts must match what the client sent and saw, and the
// layer self times must sum to the web request time within
// coverageTolerance.
func layerMetrics(cfg *config, p, untraced *pass, segBuild time.Duration) (map[string]metricOut, string, bool) {
	d := delta(p.before, p.after)
	clicks := float64(p.clicks())
	sum := func(name string) float64 { return d[name].Sum }
	count := func(name string) float64 { return d[name].Count }
	value := func(name string) float64 { return d[name].Value }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	msPer := func(name string) float64 { return div(sum(name), count(name)) / 1e6 }

	panes, runs := count("session.pane.ns"), count("blackboard.run.ns")
	// Runs outside a pane come from /go's Board() on the view whose pane
	// the user just saw; the registry cannot tell the two kinds apart, so
	// both are taken at the mean run cost. Exact when every run is a pane's.
	paneRunNS := sum("blackboard.run.ns") * math.Min(1, div(panes, runs))
	boardNS := sum("blackboard.run.ns") - paneRunNS
	stagesNS := sum("session.query.ns") + sum("session.pane.ns") + sum("session.overview.ns") + boardNS
	webNS := sum("web.request.ns")
	clickMS := 0.0
	for _, l := range p.lat {
		clickMS += l
	}
	textNS := sum("index.text.matching.ns") + sum("index.text.term.ns") + sum("index.text.search.ns")
	textN := count("index.text.matching.ns") + count("index.text.term.ns") + count("index.text.search.ns")
	planLookups := value("plan.cache.hit") + value("plan.cache.miss")
	vecLookups := value("index.vector.cache.hit") + value("index.vector.cache.miss")

	m := map[string]metricOut{}
	set := func(name string, v float64, unit string) { m[name] = metricOut{v, unit} }
	set("core.pane_ms", msPer("session.pane.ns"), "ms")
	set("advisors.build_ms", div(sum("session.pane.ns")-paneRunNS, panes)/1e6, "ms")
	for _, a := range []string{"query_refinement", "similar_by_content_collection", "numeric_range", "similar_by_content_item", "shared_property"} {
		set("analysts."+a+"_ms", msPer("blackboard.analyst."+a+".ns"), "ms")
	}
	set("facets.summarize_ms", msPer("facets.summarize.ns"), "ms")
	set("core.overview_ms", msPer("session.overview.ns"), "ms")
	set("blackboard.run_ms", msPer("blackboard.run.ns"), "ms")
	set("blackboard.runs_per_click", runs/clicks, "count")
	set("blackboard.suggestions_per_run", div(sum("blackboard.run.suggestions"), count("blackboard.run.suggestions")), "count")
	set("core.panes_per_click", panes/clicks, "count")
	set("core.query_ms", msPer("session.query.ns"), "ms")
	set("plan.eval_ms", msPer("plan.eval.ns"), "ms")
	set("plan.cache_hit_ratio", div(value("plan.cache.hit"), planLookups), "ratio")
	set("plan.cache_lookups_per_click", planLookups/clicks, "count")
	set("index.text_ms", div(textNS, textN)/1e6, "ms")
	set("web.request_ms", msPer("web.request.ns"), "ms")
	set("web.requests_per_click", count("web.request.ns")/clicks, "count")
	set("web.self_ms_per_click", (webNS-stagesNS)/1e6/clicks, "ms")
	set("par.queue_wait_ms_per_click", sum("par.queue.wait.ns")/1e6/clicks, "ms")
	set("par.serial_batch_share", div(value("par.batch.serial"), value("par.batch.count")), "ratio")
	set("web.page_kb", float64(p.pageBytes)/1e3/clicks, "kB")
	set("index.vector_search_ms", msPer("index.vector.search.ns"), "ms")
	set("index.vector_searches_per_click", count("index.vector.search.ns")/clicks, "count")
	set("index.vector_cache_hit_ratio", div(value("index.vector.cache.hit"), vecLookups), "ratio")
	set("index.vector_cache_lookups_per_click", vecLookups/clicks, "count")
	for _, s := range []string{"load", "items", "text", "vectors", "engine"} {
		set("setup."+s+"_s", p.after["startup."+s+".ns"].Value/1e9, "s")
	}
	set("segment.build_s", segBuild.Seconds(), "s")
	set("runtime.heap_live_mb", float64(p.heapLive)/1e6, "MB")
	set("client.overhead_ms_per_click", (clickMS-webNS/1e6)/clicks, "ms")
	set("trace.overhead_click_p50_ms", median(p.lat)-median(untraced.lat), "ms")
	set("trace.overhead_cpu_ms_per_click", ms(p.cpu)/clicks-ms(untraced.cpu)/float64(untraced.clicks()), "ms")

	// Coverage: every request, pane, overview and analyst run the client
	// caused is in the server's counts, and nothing else is.
	goReqs := float64(p.reqPaths["/go"])
	ok := count("web.request.ns") == float64(p.reqs) &&
		panes == float64(p.byKind["collection"]) &&
		count("session.overview.ns") == float64(p.byKind["overview"]) &&
		runs == panes+goReqs &&
		stagesNS <= webNS*(1+coverageTolerance) &&
		webNS <= p.reqMS*1e6
	check := fmt.Sprintf("CHECK trace workload=%s requests=%d/%.0f panes=%d/%.0f overviews=%d/%.0f runs=%.0f/%.0f "+
		"stages_ms=%.1f web_request_ms=%.1f coverage=%.3f web_self_ms=%.1f client_request_ms=%.1f tolerance=%.2f ok=%v",
		cfg.w.name, p.reqs, count("web.request.ns"), p.byKind["collection"], panes,
		p.byKind["overview"], count("session.overview.ns"), panes+goReqs, runs,
		stagesNS/1e6, webNS/1e6, div(stagesNS, webNS), (webNS-stagesNS)/1e6, p.reqMS, coverageTolerance, ok)
	return m, check, ok
}
