# benchjson.awk — convert `go test -bench -benchmem` output into a JSON
# array of {name, iterations, nsPerOp, bytesPerOp, allocsPerOp} records
# (BENCH_10.json in CI) and enforce seven gates. A benchmark that reports
# the branch and bound's tree sizes (the nodes/op, leaves/op and
# screened/op custom metrics) gets them copied into its record as
# nodesPerOp, leavesPerOp and screenedPerOp, ungated, so a change in tree
# size shows in the artifact; BenchmarkBestOf's column-solves/op is copied
# the same way, as columnSolvesPerOp. The gates:
#
#   * allocation gate — the strict-model Evaluate benchmarks must stay at
#     or below `gate` allocs/op (the PR-2 zero-allocation refactor brought
#     them to single digits; see EXPERIMENTS.md);
#   * leaf-rate gate — BenchmarkBnBLeafRate/screened (the walker's leaf
#     path under the exact cutoff) must rule out leaves at >= `leafgate`
#     times the rate of BenchmarkBnBLeafRate/exact (a full exact evaluation
#     per leaf; leaves/s custom metric), or the cutoff has stopped paying
#     for itself. The k-th screened run pairs with the k-th exact run, and
#     the gate reads the median of the pairs' ratios (the Makefile runs the
#     pair five times);
#   * hit-path allocation gate — BenchmarkServeHitPath/by-id (the memoized
#     by-ID /v1/evaluate request, end to end through the handler stack)
#     must stay at or below `hitgate` allocs/op;
#   * hit-path speedup gate — BenchmarkServeHitPath/by-id must run at
#     least `speedupgate` times faster (ns/op) than the inline form of the
#     same memoized request, or the content-addressed protocol has stopped
#     paying for itself. The k-th by-id run pairs with the k-th inline run,
#     and the gate reads the median of the pairs' ratios (the Makefile runs
#     the pair five times);
#   * router overhead gate — BenchmarkRouterHitPath/router (a memoized
#     by-ID hit through the cluster router, over real HTTP) must cost at
#     most `routergate` times BenchmarkRouterHitPath/direct (the same hit
#     against one node over the same transport), or fronting the cluster
#     has become more expensive than the extra hop it may add;
#   * job-poll allocation gate — BenchmarkJobSubmitPollOverhead/poll (one
#     status poll plus one result fetch of a terminal async job, through
#     the full handler stack) must stay at or below `joballocgate`
#     allocs/op, or polling an async job has grown a per-cycle cost the
#     lock-cheap progress design was built to avoid;
#   * checkpoint overhead gate — BenchmarkCheckpointOverhead's on-ns/op
#     (the same deterministic bnb search with per-root checkpointing to a
#     real on-disk store) must be at most `ckptgate` times its off-ns/op
#     (the search without it), or the durability bookkeeping has grown onto
#     the walker's hot path. The benchmark times both sides in every
#     iteration, in alternating order; the gate reads the median ratio
#     over its runs, like the leaf-rate gate.
#
# The three median gates print every run's ratio and the median to stderr.
#
# Exits non-zero after the report if any gate is broken.
#
# Usage: awk -v gate=12 -v leafgate=5 -v hitgate=32 -v speedupgate=4 \
#            -v routergate=2 -v joballocgate=32 -v ckptgate=1.05 \
#            -f scripts/benchjson.awk bench.txt > BENCH_10.json

BEGIN {
    n = 0
    fail = 0
    if (gate == "") gate = 12
    if (leafgate == "") leafgate = 5
    if (hitgate == "") hitgate = 32
    if (speedupgate == "") speedupgate = 4
    if (routergate == "") routergate = 2
    if (joballocgate == "") joballocgate = 32
    if (ckptgate == "") ckptgate = 1.05
    nExact = 0
    nScreened = 0
    nByID = 0
    nInline = 0
    routedNs = ""
    directNs = ""
    nCkpt = 0
}

# median sorts the k values of a[1..k] in place and returns their median
# (the mean of the middle two for even k).
function median(a, k,    i, j, x) {
    for (i = 2; i <= k; i++) {
        x = a[i]
        for (j = i - 1; j >= 1 && a[j] > x; j--) a[j+1] = a[j]
        a[j+1] = x
    }
    return (k % 2) ? a[(k+1)/2] : (a[k/2] + a[k/2+1]) / 2
}

/^Benchmark/ && / allocs\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
    ns = ""; bytes = ""; allocs = ""; leafrate = ""; onns = ""; offns = ""
    n++
    tree[n] = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
        if ($(i+1) == "leaves/s") leafrate = $i
        if ($(i+1) == "on-ns/op") onns = $i
        if ($(i+1) == "off-ns/op") offns = $i
        if ($(i+1) == "nodes/op") tree[n] = tree[n] ", \"nodesPerOp\": " $i
        if ($(i+1) == "leaves/op") tree[n] = tree[n] ", \"leavesPerOp\": " $i
        if ($(i+1) == "screened/op") tree[n] = tree[n] ", \"screenedPerOp\": " $i
        if ($(i+1) == "column-solves/op") tree[n] = tree[n] ", \"columnSolvesPerOp\": " $i
    }
    names[n] = name
    iters[n] = $2
    nsop[n] = ns
    bop[n] = bytes
    aop[n] = allocs

    # The allocation gate: strict-model Evaluate paths (pooled free function
    # and reused solver; the fresh-solver case intentionally measures the
    # unpooled cost and is exempt).
    if (name == "BenchmarkPeriodStrict/free-function" || name == "BenchmarkPeriodStrict/reused-solver") {
        gated[n] = 1
        if (allocs + 0 > gate + 0) {
            printf "GATE FAIL: %s at %s allocs/op exceeds the gate of %s\n", name, allocs, gate > "/dev/stderr"
            fail = 1
        }
    }

    # Collect the leaf-rate pairs for the screening gate, in run order.
    if (name == "BenchmarkBnBLeafRate/exact") { gated[n] = 1; exactLeafRate[++nExact] = leafrate }
    if (name == "BenchmarkBnBLeafRate/screened") { gated[n] = 1; screenedLeafRate[++nScreened] = leafrate }

    # The serving hit-path gates: allocation ceiling on the by-ID form, and
    # the by-ID/inline pair for the speedup ratio.
    if (name == "BenchmarkServeHitPath/by-id") {
        gated[n] = 1
        byIDNs[++nByID] = ns
        if (allocs + 0 > hitgate + 0) {
            printf "GATE FAIL: %s at %s allocs/op exceeds the hit-path gate of %s\n", name, allocs, hitgate > "/dev/stderr"
            fail = 1
        }
    }
    if (name == "BenchmarkServeHitPath/inline") { gated[n] = 1; inlineNs[++nInline] = ns }

    # The router overhead pair: routed vs direct memoized hit over HTTP.
    if (name == "BenchmarkRouterHitPath/router") { gated[n] = 1; routedNs = ns }
    if (name == "BenchmarkRouterHitPath/direct") { gated[n] = 1; directNs = ns }

    # The async job poll path: allocation ceiling per status+result cycle.
    if (name == "BenchmarkJobSubmitPollOverhead/poll") {
        gated[n] = 1
        if (allocs + 0 > joballocgate + 0) {
            printf "GATE FAIL: %s at %s allocs/op exceeds the job-poll gate of %s\n", name, allocs, joballocgate > "/dev/stderr"
            fail = 1
        }
    }

    # The checkpoint overhead pair: the same search with persistence on/off,
    # timed side by side in one benchmark.
    if (name == "BenchmarkCheckpointOverhead") {
        gated[n] = 1
        if (onns == "" || offns == "" || offns + 0 <= 0) {
            print "GATE FAIL: BenchmarkCheckpointOverhead reported only one of on-ns/op and off-ns/op" > "/dev/stderr"
            fail = 1
        } else {
            ckptRatio[++nCkpt] = onns / offns
        }
    }
}

END {
    if (n == 0) {
        print "benchjson.awk: no benchmark lines found" > "/dev/stderr"
        exit 1
    }
    if (nExact > 0 || nScreened > 0) {
        if (nExact != nScreened) {
            printf "GATE FAIL: BenchmarkBnBLeafRate ran exact %d and screened %d times\n", nExact, nScreened > "/dev/stderr"
            fail = 1
        } else {
            for (k = 1; k <= nExact; k++) {
                leafRatio[k] = (exactLeafRate[k] + 0 > 0) ? screenedLeafRate[k] / exactLeafRate[k] : 0
                printf "leaf-rate run %d: screened %s / exact %s leaves/s = %.2fx\n", k, screenedLeafRate[k], exactLeafRate[k], leafRatio[k] > "/dev/stderr"
            }
            med = median(leafRatio, nExact)
            printf "leaf-rate median over %d runs: %.2fx (gate %sx)\n", nExact, med, leafgate > "/dev/stderr"
            if (med < leafgate + 0) {
                printf "GATE FAIL: median screened/exact leaf rate %.2fx is below the gate of %sx\n", med, leafgate > "/dev/stderr"
                fail = 1
            }
        }
    }
    if (nByID > 0 || nInline > 0) {
        if (nByID != nInline) {
            printf "GATE FAIL: BenchmarkServeHitPath ran by-id %d and inline %d times\n", nByID, nInline > "/dev/stderr"
            fail = 1
        } else {
            for (k = 1; k <= nByID; k++) {
                hitRatio[k] = (byIDNs[k] + 0 > 0) ? inlineNs[k] / byIDNs[k] : 0
                printf "hit-path run %d: inline %s / by-id %s ns/op = %.2fx\n", k, inlineNs[k], byIDNs[k], hitRatio[k] > "/dev/stderr"
            }
            med = median(hitRatio, nByID)
            printf "hit-path speedup median over %d runs: %.2fx (gate %sx)\n", nByID, med, speedupgate > "/dev/stderr"
            if (med < speedupgate + 0) {
                printf "GATE FAIL: median by-ID/inline hit-path speedup %.2fx is below the gate of %sx\n", med, speedupgate > "/dev/stderr"
                fail = 1
            }
        }
    }
    if (routedNs != "" || directNs != "") {
        if (routedNs == "" || directNs == "") {
            print "GATE FAIL: BenchmarkRouterHitPath ran only one of router/direct" > "/dev/stderr"
            fail = 1
        } else if (directNs + 0 <= 0 || routedNs + 0 > routergate * (directNs + 0)) {
            printf "GATE FAIL: routed hit path at %s ns/op exceeds %sx the direct hit path at %s ns/op\n", \
                routedNs, routergate, directNs > "/dev/stderr"
            fail = 1
        }
    }
    if (nCkpt > 0) {
        for (k = 1; k <= nCkpt; k++) {
            printf "checkpoint run %d: on/off = %.3f\n", k, ckptRatio[k] > "/dev/stderr"
        }
        med = median(ckptRatio, nCkpt)
        printf "checkpoint median over %d runs: %.3f (gate %s)\n", nCkpt, med, ckptgate > "/dev/stderr"
        if (med > ckptgate + 0) {
            printf "GATE FAIL: median checkpointed/plain search ratio %.3f exceeds the gate of %s\n", med, ckptgate > "/dev/stderr"
            fail = 1
        }
    }
    print "["
    for (i = 1; i <= n; i++) {
        printf "  {\"name\": \"%s\", \"iterations\": %s, \"nsPerOp\": %s, \"bytesPerOp\": %s, \"allocsPerOp\": %s%s, \"gated\": %s}%s\n", \
            names[i], iters[i], nsop[i], bop[i], aop[i], tree[i], (gated[i] ? "true" : "false"), (i < n ? "," : "")
    }
    print "]"
    if (fail) exit 1
}
