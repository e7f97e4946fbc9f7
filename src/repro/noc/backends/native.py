"""The vectorized backend: a compiled C kernel with a reference fallback.

The reference engine (:mod:`repro.noc.backends.reference`) steps live
router objects and is interpreter-bound.  This module carries the *same*
pipeline -- decision for decision: VC allocation order, switch
allocation round-robins, credit timing, ejection order -- as a small C
translation unit over flat arrays, compiled on demand with whatever
``cc``/``gcc``/``clang`` the host provides and loaded through
:mod:`ctypes`.

The compiled object is cached in the system temp directory under a name
keyed by the SHA-256 of the embedded source and the compiler flags, so
each kernel revision compiles once per machine; publication is an
atomic :func:`os.replace` so concurrent sweep workers never observe a
half-written library.  When
no compiler is available, compilation fails, or ``REPRO_NOC_NATIVE=0``
disables the path, :func:`available` returns False and
:class:`VectorizedBackend` runs the reference engine instead -- same
results, just slower.  This is the engine ``backend="auto"``, the
default everywhere, runs on.

Division of labour with the Python driver:

- the traffic process is drawn in C too: ``draw_traffic`` replays
  ``TrafficGenerator.packets_for_cycle`` on a bit-exact port of
  CPython's MT19937 (``random()`` and ``randrange()``), seeded from the
  stream's ``random.getstate()``, and writes per-packet columns (row
  index == pid); the MT state lives in a per-run buffer, so every draw
  continues the stream;
- a plain run is one ``run_kernel`` call that draws its traffic on
  demand, a 16-cycle chunk whenever the cycle loop (or an idle
  fast-forward) reaches the end of the rows drawn, so it draws no more
  than the cycles it runs plus one chunk; only when the columns' row
  capacity runs out does it report ``UNFINISHED``, and the driver grows
  the columns (keeping the rows drawn) and re-runs the kernel from
  scratch -- it is deterministic and fast enough that a rare re-run is
  cheaper than checkpointing state across the boundary;
- the kernel also computes the result statistics over the measured
  packets' ejection order (``result_stats``: the Welford means in
  ``RunningStats.add``'s operation order, the maximum latency and the
  p50/p95/p99 by ``util.stats.percentile``'s interpolation), so no
  per-packet data returns to Python;
- gated runs run in C as well: a plain
  :class:`~repro.noc.power_gating.TimeoutGatingPolicy` is data (its
  ``idle_timeout``, a per-router protected mask and the network's
  8-cycle wakeup latency), the kernel applies its rule every cycle and
  returns the gate, wake and gated-router-cycle counts, which the driver
  adds to ``policy.stats`` once the run is complete; any other policy
  object runs on the reference engine;
- telemetry runs batch their per-interval activity capture inside the
  kernel (sample cycle, flits in flight, per-router buffer occupancy,
  gating flags and cumulative ejections land in flat arrays, including
  back-filled rows for fast-forwarded idle stretches), and the driver
  replays them as the same spans, sample events and metrics the
  reference emits -- cumulative per-router injection counts are
  reconstructed from the drawn packet columns, so the kernel never
  touches them;
- fault schedules run as a *chain* of kernel segments, one per region
  configuration, over one drawn packet stream: the kernel stops at the
  next fault boundary (reporting per-packet progress), the driver
  replays the reference's teardown / drop-and-retransmit policy in
  Python -- survivors, carried as global row ids, become seed rows of
  the next segment's packet columns, re-entering through the normal NI
  path in pid order -- and the fault counters, activity folds, gating
  counts and telemetry accumulate across segments; segments run over
  pre-drawn columns, and ``result_stats`` runs once over the
  concatenated per-segment latencies and hops.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
import threading
from types import SimpleNamespace

import numpy as np

from repro.noc.activity import NetworkActivity
from repro.noc.backends.reference import ReferenceBackend, _record_sim_metrics
from repro.noc.power_gating import TimeoutGatingPolicy
from repro.noc.result import SimulationResult
from repro.noc.routing import PORT_COUNT, PORT_TO_DIRECTION, REVERSE_PORT
from repro.noc.spec import SimulationSpec

# occupancy and allocation-pending masks are single 64-bit words:
# PORT_COUNT * vcs bits must fit (5 * 12 = 60)
_MAX_VCS = 12

_FLAG_UNFINISHED = 1  # out of traffic: past the drawn horizon or row capacity
_FLAG_IDLE_BREAK = 2  # whole-mesh idle exit before the window closed
_FLAG_BOUNDARY = 4  # stopped at a fault boundary (stop_cycle) for the driver

_WAKEUP_LATENCY = 8  # the reference Network's default wakeup latency

_REV = np.array([REVERSE_PORT.get(p, 0) for p in range(PORT_COUNT)], dtype=np.int64)
_REV.flags.writeable = False

_KERNEL_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef long long i64;

#define NEVER (1LL << 60)
#define FLAG_UNFINISHED 1
#define FLAG_IDLE_BREAK 2
#define FLAG_BOUNDARY 4
#define DRAW_CHUNK 16  /* cycles of traffic drawn per on-demand step */

i64 draw_traffic(uint32_t *mt, i64 k, const i64 *ep_src, const i64 *ep_node,
                 const i64 *perm, i64 mode, double prob, double hot_frac,
                 i64 hot, i64 length, i64 warmup, i64 measure_end,
                 i64 c0, i64 c1, i64 cap, i64 *cycle, i64 *src, i64 *dest,
                 i64 *len, i64 *meas, i64 *reached);
i64 result_stats(i64 n, const i64 *lat, const i64 *hops, double *res);

/* One cycle-exact replica of the reference wormhole-VC pipeline over
 * flat arrays.  Every arbitration order (VC allocation request order,
 * free-VC assignment, both switch-allocation round-robins), every
 * pipeline delay (VA at arrival+2, head SA one cycle after VA, body SA
 * at arrival+1, credits at +1, links at +2) and the ejection sequence
 * match the reference engine bit for bit.
 *
 * Fault schedules run as a chain of segments: each reconfiguration
 * tears the network down to fresh state anyway, so the driver invokes
 * the kernel once per region with `start_cycle` at the boundary,
 * `stop_cycle` at the next one, and the surviving packets spliced into
 * the packet columns at `start_cycle` (seed rows precede that cycle's
 * creations, preserving the reference's re-injection order).
 *
 * `gating` runs TimeoutGatingPolicy from data: each cycle the policy
 * sees the state the previous cycle left, gating every unprotected,
 * empty router with an idle NI that has been inactive for `idle_timeout`
 * cycles; link arrivals, NI pressure and switch nominations blocked on
 * a gated next hop request a wake `wakeup` cycles out, due wakes
 * complete before allocation, gated routers sit allocation out, powered
 * cycles accrue per router, and the whole-mesh idle jump is off (the
 * policy observes every cycle). */
i64 run_kernel(
    i64 count, i64 vcs, i64 depth, i64 mesh,
    const i64 *neighbor,   /* count*5 router indices, -1 when absent   */
    const i64 *route,      /* count*mesh output port per dest node id;
                            * adaptive candidate pairs are packed as
                            * 8 | (c0 << 4) | (c1 << 8)                */
    const i64 *rev,        /* 5: reverse port map                      */
    i64 n_pkts,            /* rows already drawn                       */
    i64 *p_cycle, i64 *p_src, i64 *p_dest, i64 *p_len, i64 *p_meas,
    i64 sched_upto,        /* cycles of traffic already drawn          */
    i64 warmup, i64 measure_end, i64 deadline,
    i64 start_cycle,       /* first cycle (a fault-segment boundary)   */
    i64 stop_cycle,        /* break before this cycle, -1 for never    */
    i64 *p_hops,           /* n_pkts, zero-initialised                 */
    i64 *p_eject,          /* n_pkts, tail-ejection cycle or -1        */
    i64 *p_started,        /* n_pkts: >=1 flit left the source NI      */
    i64 *ej_order,         /* capacity n_pkts: measured ejection order */
    i64 *counters,         /* count*4: writes, reads, links, va grants */
    i64 *out,              /* 12 scalars, see _kernel_run              */
    i64 interval,          /* telemetry sample period, 0 = no capture  */
    i64 s_cap,             /* capacity of the sample arrays            */
    i64 *s_cycle,          /* s_cap: sample instants                   */
    i64 *s_inflight,       /* s_cap: flits in flight at the instant    */
    i64 *s_occ,            /* s_cap*count: per-router buffered flits   */
    i64 *s_ej,             /* s_cap*count: cumulative ejected flits    */
    i64 *ej_out,           /* count: final cumulative ejected flits    */
    i64 gating,            /* nonzero: run the timeout gating policy   */
    i64 idle_timeout, i64 wakeup,
    const i64 *protect,    /* count: 1 = never gated                   */
    i64 *powered,          /* count: powered cycles in the window      */
    i64 *s_gated,          /* s_cap*count: gated flags (when gating)   */
    /* the on-demand traffic source (draw_traffic's arguments); NULL `mt`
     * means the columns already hold every row the run may use */
    uint32_t *mt, i64 k, const i64 *ep_src, const i64 *ep_node,
    const i64 *perm, i64 mode, double prob, double hot_frac, i64 hot,
    i64 length,
    i64 cap,               /* row capacity of the packet columns and
                            * the per-packet outputs                   */
    double *stats)         /* 6: result_stats' output, NULL for none    */
{
    i64 slots = 5 * vcs;
    i64 gslots = count * slots;
    i64 vmask = (1LL << vcs) - 1;

    /* per-slot flit FIFOs as rings of capacity `depth` (credits bound
     * occupancy), plus flat allocation state */
    i64 *f_arr = malloc((size_t)gslots * depth * sizeof(i64));
    i64 *f_idx = malloc((size_t)gslots * depth * sizeof(i64));
    i64 *f_pkt = malloc((size_t)gslots * depth * sizeof(i64));
    i64 *rh = calloc((size_t)gslots, sizeof(i64));
    i64 *fl = calloc((size_t)gslots, sizeof(i64));
    i64 *vc_out = malloc((size_t)gslots * sizeof(i64));
    i64 *vc_elig = calloc((size_t)gslots, sizeof(i64));
    i64 *owner = malloc((size_t)gslots * sizeof(i64));
    i64 *credits = calloc((size_t)gslots, sizeof(i64));
    i64 *va_ptr = calloc((size_t)count * 5, sizeof(i64));
    i64 *sa_in = calloc((size_t)count * 5, sizeof(i64));
    i64 *sa_out = calloc((size_t)count * 5, sizeof(i64));
    i64 *occ = calloc((size_t)count, sizeof(i64));
    i64 *vap = calloc((size_t)count, sizeof(i64));
    i64 *buffered = calloc((size_t)count, sizeof(i64));
    i64 *ej_cum = calloc((size_t)count, sizeof(i64));
    i64 *wake = calloc((size_t)count, sizeof(i64));
    /* network interfaces: packet queues as linked lists over pnext */
    i64 *qhead = malloc((size_t)count * sizeof(i64));
    i64 *qtail = malloc((size_t)count * sizeof(i64));
    i64 *pnext = malloc((size_t)(cap ? cap : 1) * sizeof(i64));
    i64 *cur_pkt = malloc((size_t)count * sizeof(i64));
    i64 *cur_idx = calloc((size_t)count, sizeof(i64));
    i64 *cur_vc = calloc((size_t)count, sizeof(i64));
    i64 *ni_ptr = calloc((size_t)count, sizeof(i64));
    /* in-flight event rings: credits land at +1, link flits at +2 */
    i64 ring_cap = 5 * count + 8;
    i64 *cring = malloc((size_t)2 * ring_cap * 2 * sizeof(i64));
    i64 *aring = malloc((size_t)3 * ring_cap * 4 * sizeof(i64));
    i64 cring_n[2] = {0, 0};
    i64 aring_n[3] = {0, 0, 0};
    /* run-time gating: flags, pending wake cycle (-1 none), last activity */
    i64 *gated = calloc((size_t)count, sizeof(i64));
    i64 *wake_at = malloc((size_t)count * sizeof(i64));
    i64 *last_act = calloc((size_t)count, sizeof(i64));
    i64 gate_events = 0, wake_events = 0, gated_cycles = 0;

#define FREE_ALL() do {                                                   \
        free(f_arr); free(f_idx); free(f_pkt); free(rh); free(fl);        \
        free(vc_out); free(vc_elig); free(owner); free(credits);          \
        free(va_ptr); free(sa_in); free(sa_out); free(occ); free(vap);    \
        free(buffered); free(ej_cum); free(wake); free(qhead);            \
        free(qtail); free(pnext); free(cur_pkt); free(cur_idx);           \
        free(cur_vc); free(ni_ptr); free(cring); free(aring);             \
        free(gated); free(wake_at); free(last_act);                       \
    } while (0)

    if (!f_arr || !f_idx || !f_pkt || !rh || !fl || !vc_out || !vc_elig ||
        !owner || !credits || !va_ptr || !sa_in || !sa_out || !occ || !vap ||
        !buffered || !ej_cum || !wake || !qhead || !qtail || !pnext ||
        !cur_pkt || !cur_idx || !cur_vc || !ni_ptr || !cring || !aring ||
        !gated || !wake_at || !last_act) {
        FREE_ALL();
        return 1;
    }

/* one telemetry sample row: instant, in-flight count (this cycle's
 * creations are folded in by the driver), per-router buffer occupancy
 * and cumulative ejected flits -- captured before the cycle's event
 * deliveries, i.e. the state the previous cycle's step left behind */
#define CAPTURE(c_) do {                                                  \
        if (n_s < s_cap) {                                                \
            s_cycle[n_s] = (c_);                                          \
            s_inflight[n_s] = in_flight;                                  \
            memcpy(s_occ + n_s * count, buffered,                         \
                   (size_t)count * sizeof(i64));                          \
            memcpy(s_ej + n_s * count, ej_cum,                            \
                   (size_t)count * sizeof(i64));                          \
            if (gating)                                                   \
                memcpy(s_gated + n_s * count, gated,                      \
                       (size_t)count * sizeof(i64));                      \
            n_s++;                                                        \
        }                                                                 \
    } while (0)

    for (i64 g = 0; g < gslots; g++) { vc_out[g] = -1; owner[g] = -1; }
    for (i64 i = 0; i < count; i++) {
        qhead[i] = -1; qtail[i] = -1; cur_pkt[i] = -1; wake_at[i] = -1;
        for (i64 v = 0; v < vcs; v++)
            credits[i * slots + v] = 1LL << 30;  /* ejection: unbounded */
        for (i64 port = 1; port < 5; port++)
            if (neighbor[i * 5 + port] >= 0)
                for (i64 v = 0; v < vcs; v++)
                    credits[i * slots + port * vcs + v] = depth;
    }

/* on demand: draw the next DRAW_CHUNK cycles (never past the deadline)
 * into the free rows; `sched_upto` stays put once the capacity is
 * exhausted */
#define DRAW_MORE() do {                                                  \
        i64 c1_ = deadline - sched_upto > DRAW_CHUNK                      \
                      ? sched_upto + DRAW_CHUNK : deadline;               \
        i64 drawn_ = draw_traffic(                                        \
            mt, k, ep_src, ep_node, perm, mode, prob, hot_frac, hot,      \
            length, warmup, measure_end, sched_upto, c1_, cap - n_pkts,   \
            p_cycle + n_pkts, p_src + n_pkts, p_dest + n_pkts,            \
            p_len + n_pkts, p_meas + n_pkts, &sched_upto);                \
        n_pkts += drawn_;                                                 \
    } while (0)

    /* an idle exit reports this many cycles run, and the drawn rows must
     * cover them (the driver replays injections below cycles_run) */
    i64 idle_end = deadline > measure_end ? measure_end + 1 : deadline;
    i64 cycle = start_cycle, cycles_run = 0, flags = 0;
    i64 in_flight = 0, events_pending = 0, p = 0;
    i64 created_measured = 0, measured_ejected = 0, measured_flits = 0;
    i64 n_ej = 0, n_s = 0;
    i64 first_wu = -1, first_me = -1;

    for (;;) {
        if (cycle >= deadline) { cycles_run = deadline; break; }

        /* the reference loop reaches a boundary cycle with the old
         * segment's flits still in flight, so its idle check never
         * fires there; a seeded segment starts with in_flight == 0
         * (seeds enter through the packet columns below), so skip the
         * idle check on the seeded first cycle to match */
        if (!gating && !in_flight && !events_pending
            && (start_cycle == 0 || cycle != start_cycle)) {
            /* whole-mesh idle: jump to the next scheduled packet or the
             * stop boundary, or exit the way the reference loop does
             * when neither is due before the measurement window closes
             * (a boundary beyond it stays unprocessed, exactly like the
             * reference's); back-fill the sample instants the jump
             * skips (all-idle rows); on demand, draw ahead until a
             * packet is due or the idle exit's cycles are covered */
            while (mt && p >= n_pkts && sched_upto < idle_end) {
                i64 before = sched_upto;
                DRAW_MORE();
                if (sched_upto == before) { flags |= FLAG_UNFINISHED; break; }
            }
            if (flags & FLAG_UNFINISHED) break;
            i64 nxt = (p < n_pkts && p_cycle[p] < measure_end)
                          ? p_cycle[p] : -1;
            if (nxt < 0 && (stop_cycle < 0 || stop_cycle > measure_end)) {
                cycles_run = idle_end;
                flags |= FLAG_IDLE_BREAK;
                if (interval) {
                    i64 c = (cycle + interval - 1) / interval * interval;
                    for (; c < cycles_run; c += interval) CAPTURE(c);
                }
                break;
            }
            i64 tgt = nxt;
            if (nxt < 0 || (stop_cycle >= 0 && stop_cycle < nxt))
                tgt = stop_cycle;
            if (interval) {
                i64 c = (cycle + interval - 1) / interval * interval;
                for (; c < tgt; c += interval) CAPTURE(c);
            }
            cycle = tgt;
        }

        /* fault boundary: hand control back to the driver, which
         * rebuilds the region and re-seeds the survivors (deadline
         * wins over a boundary, exactly like the reference loop) */
        if (cycle == stop_cycle) {
            cycles_run = cycle;
            flags |= FLAG_BOUNDARY;
            break;
        }

        if (cycle >= sched_upto && mt) DRAW_MORE();
        if (cycle >= sched_upto) { flags |= FLAG_UNFINISHED; break; }

        /* first *visited* cycles past the phase thresholds -- the
         * driver replays the reference's phase-span transitions there */
        if (first_wu < 0 && cycle >= warmup) first_wu = cycle;
        if (first_me < 0 && cycle >= measure_end) first_me = cycle;

        if (interval && cycle % interval == 0) CAPTURE(cycle);

        int win = warmup <= cycle && cycle < measure_end;

        /* new packets enter their source NI queues */
        while (p < n_pkts && p_cycle[p] == cycle) {
            i64 i = p_src[p];
            pnext[p] = -1;
            if (qtail[i] < 0) qhead[i] = p; else pnext[qtail[i]] = p;
            qtail[i] = p;
            in_flight += p_len[p];
            if (p_meas[p]) created_measured++;
            p++;
        }

        /* the gating policy steps on the state the previous cycle left
         * (it sees this cycle's NI queue entries), then wakes due now
         * complete and powered routers accrue the cycle */
        if (gating) {
            for (i64 i = 0; i < count; i++) {
                if (gated[i]) {
                    gated_cycles++;
                    if (wake_at[i] < 0 || cycle < wake_at[i]) continue;
                    if (wake_at[i] == cycle) wake_events++;
                    gated[i] = 0; wake_at[i] = -1;
                    last_act[i] = cycle; wake[i] = cycle;
                } else if (!protect[i] && !buffered[i] && cur_pkt[i] < 0
                           && qhead[i] < 0
                           && cycle - last_act[i] >= idle_timeout) {
                    gated[i] = 1; wake_at[i] = -1;
                    gate_events++;
                    continue;
                }
                if (win) powered[i]++;
            }
        }

        /* deliver credits scheduled for this cycle */
        {
            i64 r = cycle % 2, n = cring_n[r];
            for (i64 e = 0; e < n; e++) {
                i64 i = cring[(r * ring_cap + e) * 2];
                i64 s = cring[(r * ring_cap + e) * 2 + 1];
                credits[i * slots + s]++;
                wake[i] = cycle;
            }
            cring_n[r] = 0;
            events_pending -= n;
        }

        /* deliver link arrivals scheduled for this cycle */
        {
            i64 r = cycle % 3, n = aring_n[r];
            for (i64 e = 0; e < n; e++) {
                const i64 *ev = aring + (r * ring_cap + e) * 4;
                i64 i = ev[0], s = ev[1];
                i64 g = i * slots + s;
                i64 pos = rh[g] + fl[g];
                if (pos >= depth) pos -= depth;
                f_arr[g * depth + pos] = cycle;
                f_idx[g * depth + pos] = ev[2];
                f_pkt[g * depth + pos] = ev[3];
                fl[g]++;
                buffered[i]++;
                occ[i] |= 1LL << s;
                if (vc_out[g] < 0) vap[i] |= 1LL << s;
                wake[i] = cycle;
                if (win) counters[i * 4]++;
                if (gating) {  /* a gated router takes it, then wakes */
                    last_act[i] = cycle;
                    if (gated[i] && wake_at[i] < 0) wake_at[i] = cycle + wakeup;
                }
            }
            aring_n[r] = 0;
            events_pending -= n;
        }

        /* NI injection: one flit per node per cycle into a claimed VC */
        for (i64 i = 0; i < count; i++) {
            i64 cp = cur_pkt[i];
            if (cp < 0 && qhead[i] < 0) continue;
            if (gated[i]) {  /* NI pressure wakes a gated router */
                if (wake_at[i] < 0) wake_at[i] = cycle + wakeup;
                continue;
            }
            if (cp < 0) {
                i64 chosen = -1;
                for (i64 k = 0; k < vcs; k++) {
                    i64 v = ni_ptr[i] + k;
                    if (v >= vcs) v -= vcs;
                    i64 g = i * slots + v;
                    if (fl[g] == 0 && vc_out[g] < 0) { chosen = v; break; }
                }
                if (chosen < 0) continue;
                ni_ptr[i] = chosen + 1 < vcs ? chosen + 1 : 0;
                cp = qhead[i];
                cur_pkt[i] = cp; cur_idx[i] = 0; cur_vc[i] = chosen;
                qhead[i] = pnext[cp];
                if (qhead[i] < 0) qtail[i] = -1;
            }
            i64 v = cur_vc[i], g = i * slots + v;
            if (fl[g] >= depth) continue;
            i64 pos = rh[g] + fl[g];
            if (pos >= depth) pos -= depth;
            f_arr[g * depth + pos] = cycle;
            f_idx[g * depth + pos] = cur_idx[i];
            f_pkt[g * depth + pos] = cp;
            fl[g]++;
            buffered[i]++;
            occ[i] |= 1LL << v;
            if (vc_out[g] < 0) vap[i] |= 1LL << v;
            wake[i] = cycle;
            if (win) counters[i * 4]++;
            p_started[cp] = 1;  /* past the NI: a fault would retransmit */
            cur_idx[i]++;
            if (cur_idx[i] >= p_len[cp]) cur_pkt[i] = -1;
        }

        /* per-router VC allocation + switch allocation + traversal */
        for (i64 i = 0; i < count; i++) {
            if (!buffered[i] || wake[i] > cycle || gated[i]) continue;
            int acted = 0;
            i64 min_wait = NEVER;
            i64 base_g = i * slots;

            /* VA: heads of unallocated occupied VCs request out-VCs,
             * grouped by output port in first-encounter order */
            i64 m = vap[i];
            i64 req_order[5], n_req = 0;
            i64 req_cnt[5] = {0, 0, 0, 0, 0};
            i64 req_s[5][60];
            if (m) {
                const i64 *route_i = route + i * mesh;
                while (m) {
                    i64 s = __builtin_ctzll((unsigned long long)m);
                    m &= m - 1;
                    i64 g = base_g + s;
                    i64 fpos = g * depth + rh[g];
                    i64 ready = f_arr[fpos] + 2;  /* BW, RC, then VA */
                    if (cycle < ready) {
                        if (ready < min_wait) min_wait = ready;
                        continue;
                    }
                    i64 out_p = route_i[p_dest[f_pkt[fpos]]];
                    if (out_p >= 8) {
                        /* packed adaptive candidate pair: prefer a free
                         * out-VC, then most downstream credits; strict
                         * improvement only, so ties keep the first
                         * (turn-model-preferred) candidate */
                        i64 cand[2] = {(out_p >> 4) & 7, (out_p >> 8) & 7};
                        i64 bf = -1, bc = -1;
                        for (int ci = 0; ci < 2; ci++) {
                            i64 ob = base_g + cand[ci] * vcs;
                            i64 fr = 0, cr = 0;
                            for (i64 v = 0; v < vcs; v++) {
                                if (owner[ob + v] < 0) fr = 1;
                                cr += credits[ob + v];
                            }
                            if (fr > bf || (fr == bf && cr > bc)) {
                                bf = fr; bc = cr; out_p = cand[ci];
                            }
                        }
                    }
                    if (req_cnt[out_p] == 0) req_order[n_req++] = out_p;
                    req_s[out_p][req_cnt[out_p]++] = s;
                }
                for (i64 r = 0; r < n_req; r++) {
                    i64 out_p = req_order[r];
                    i64 free_s[12], nf = 0;
                    i64 ob = out_p * vcs;
                    for (i64 v = 0; v < vcs; v++)
                        if (owner[base_g + ob + v] < 0) free_s[nf++] = ob + v;
                    if (!nf) continue;
                    i64 nr = req_cnt[out_p];
                    i64 *rs = req_s[out_p];
                    if (nr > 1) {
                        i64 ptr = va_ptr[i * 5 + out_p];
                        for (i64 a = 1; a < nr; a++) {
                            i64 x = rs[a];
                            i64 kx = (x - ptr) % slots;
                            if (kx < 0) kx += slots;
                            i64 b = a - 1;
                            while (b >= 0) {
                                i64 kb = (rs[b] - ptr) % slots;
                                if (kb < 0) kb += slots;
                                if (kb <= kx) break;
                                rs[b + 1] = rs[b];
                                b--;
                            }
                            rs[b + 1] = x;
                        }
                    }
                    i64 nz = nr < nf ? nr : nf;
                    for (i64 a = 0; a < nz; a++) {
                        i64 s = rs[a], os = free_s[a];
                        vc_out[base_g + s] = os;
                        vc_elig[base_g + s] = cycle + 1;
                        owner[base_g + os] = s;
                        va_ptr[i * 5 + out_p] = (s + 1) % slots;
                        vap[i] &= ~(1LL << s);
                        acted = 1;
                        if (win) counters[i * 4 + 3]++;
                    }
                }
            }

            /* SA stage 1: each input port nominates one ready VC */
            i64 mask = occ[i];
            i64 nom_in[5], nom_v[5], nom_s[5], nom_os[5], n_nom = 0;
            for (i64 in_p = 0; in_p < 5; in_p++) {
                i64 pm = (mask >> (in_p * vcs)) & vmask;
                if (!pm) continue;
                i64 start = sa_in[i * 5 + in_p];
                for (i64 k = 0; k < vcs; k++) {
                    i64 v = start + k;
                    if (v >= vcs) v -= vcs;
                    if (!((pm >> v) & 1)) continue;
                    i64 s = in_p * vcs + v, g = base_g + s;
                    i64 os = vc_out[g];
                    if (os < 0) continue;
                    i64 fpos = g * depth + rh[g];
                    if (f_idx[fpos] == 0) {   /* head: VA + one cycle   */
                        i64 ready = vc_elig[g];
                        if (cycle < ready) {
                            if (ready < min_wait) min_wait = ready;
                            continue;
                        }
                    } else {                  /* body: buffer write + 1 */
                        i64 ready = f_arr[fpos] + 1;
                        if (cycle < ready) {
                            if (ready < min_wait) min_wait = ready;
                            continue;
                        }
                    }
                    if (credits[base_g + os] <= 0) continue;
                    if (gating && os >= vcs) {
                        /* blocked on a gated next hop: wake it, try the
                         * port's next VC */
                        i64 down = neighbor[i * 5 + os / vcs];
                        if (gated[down]) {
                            if (wake_at[down] < 0)
                                wake_at[down] = cycle + wakeup;
                            if (wake_at[down] < min_wait)
                                min_wait = wake_at[down];
                            continue;
                        }
                    }
                    nom_in[n_nom] = in_p; nom_v[n_nom] = v;
                    nom_s[n_nom] = s; nom_os[n_nom] = os;
                    n_nom++;
                    break;
                }
            }
            if (!n_nom) {
                wake[i] = acted ? cycle + 1 : min_wait;
                continue;
            }

            /* SA stage 2: one grant per output port, groups resolved in
             * first-nomination order */
            i64 win_idx[5], n_win = 0;
            if (n_nom == 1) {
                win_idx[0] = 0; n_win = 1;
            } else {
                i64 seen_out[5], n_out = 0;
                for (i64 a = 0; a < n_nom; a++) {
                    i64 op = nom_os[a] / vcs;
                    int dup = 0;
                    for (i64 b = 0; b < n_out; b++)
                        if (seen_out[b] == op) { dup = 1; break; }
                    if (!dup) seen_out[n_out++] = op;
                }
                for (i64 b = 0; b < n_out; b++) {
                    i64 op = seen_out[b];
                    i64 ptr = sa_out[i * 5 + op];
                    i64 best = -1, best_k = 1LL << 30;
                    for (i64 a = 0; a < n_nom; a++) {
                        if (nom_os[a] / vcs != op) continue;
                        i64 kk = (nom_in[a] - ptr) % 5;
                        if (kk < 0) kk += 5;
                        if (kk < best_k) { best_k = kk; best = a; }
                    }
                    win_idx[n_win++] = best;
                }
            }

            /* traversal */
            for (i64 w = 0; w < n_win; w++) {
                i64 a = win_idx[w];
                i64 in_p = nom_in[a], v = nom_v[a];
                i64 s = nom_s[a], os = nom_os[a];
                i64 g = base_g + s;
                i64 fpos = g * depth + rh[g];
                i64 fi = f_idx[fpos], pk = f_pkt[fpos];
                fl[g]--;
                if (fl[g] == 0) {
                    rh[g] = 0;
                    occ[i] &= ~(1LL << s);
                } else {
                    rh[g] = rh[g] + 1 >= depth ? 0 : rh[g] + 1;
                }
                buffered[i]--;
                credits[base_g + os]--;
                if (win) counters[i * 4 + 1]++;
                int is_tail = fi == p_len[pk] - 1;
                if (in_p) {  /* return a credit upstream at +1 */
                    i64 up = neighbor[i * 5 + in_p];
                    i64 slot_up = rev[in_p] * vcs + v;
                    i64 r = (cycle + 1) % 2;
                    i64 e = cring_n[r]++;
                    cring[(r * ring_cap + e) * 2] = up;
                    cring[(r * ring_cap + e) * 2 + 1] = slot_up;
                    events_pending++;
                }
                if (is_tail) {
                    owner[base_g + os] = -1;
                    vc_out[g] = -1;
                    if (occ[i] & (1LL << s)) vap[i] |= 1LL << s;
                }
                if (os < vcs) {  /* LOCAL output: ejection */
                    in_flight--;
                    if (is_tail) {
                        ej_cum[i] += p_len[pk];
                        p_eject[pk] = cycle + 2;
                        if (p_meas[pk]) {
                            measured_ejected++;
                            measured_flits += p_len[pk];
                            ej_order[n_ej++] = pk;
                        }
                    }
                } else {         /* link traversal, arrival at +2 */
                    if (win) counters[i * 4 + 2]++;
                    if (fi == 0) p_hops[pk]++;
                    i64 out_p = os / vcs;
                    i64 down = neighbor[i * 5 + out_p];
                    i64 slot_down = rev[out_p] * vcs + (os - out_p * vcs);
                    i64 r = (cycle + 2) % 3;
                    i64 e = aring_n[r]++;
                    i64 *ev = aring + (r * ring_cap + e) * 4;
                    ev[0] = down; ev[1] = slot_down; ev[2] = fi; ev[3] = pk;
                    events_pending++;
                }
                sa_in[i * 5 + in_p] = v + 1 < vcs ? v + 1 : 0;
                sa_out[i * 5 + os / vcs] = (in_p + 1) % 5;
            }
            last_act[i] = cycle;
            wake[i] = cycle + 1;
        }

        cycle++;
        if (cycle > measure_end && measured_ejected >= created_measured) {
            cycles_run = cycle;
            break;
        }
    }

    out[0] = cycles_run;
    out[1] = flags;
    out[2] = n_ej;
    out[3] = created_measured;
    out[4] = measured_ejected;
    out[5] = measured_flits;
    out[6] = n_s;
    out[7] = first_wu;
    out[8] = first_me;
    out[9] = gate_events;
    out[10] = wake_events;
    out[11] = gated_cycles;
    out[12] = n_pkts;
    out[13] = sched_upto;
    memcpy(ej_out, ej_cum, (size_t)count * sizeof(i64));

    FREE_ALL();
    if (stats && !(flags & FLAG_UNFINISHED)) {
        /* the measured packets' latencies and hops, in ejection order */
        i64 *lat = malloc((size_t)(n_ej ? 2 * n_ej : 1) * sizeof(i64));
        if (!lat) return 1;
        for (i64 j = 0; j < n_ej; j++) {
            i64 pk = ej_order[j];
            lat[j] = p_eject[pk] - p_cycle[pk];
            lat[n_ej + j] = p_hops[pk];
        }
        int status = result_stats(n_ej, lat, lat + n_ej, stats);
        free(lat);
        return status;
    }
    return 0;
}
#undef CAPTURE
#undef DRAW_MORE
#undef FREE_ALL

/* The Bernoulli traffic source: TrafficGenerator.packets_for_cycle over
 * a range of cycles, drawing from a bit-exact port of CPython's MT19937
 * (`mt` holds random.getstate()'s 624 words followed by the position).
 * Same draw order per cycle and endpoint: one random() against the
 * packet probability, then the destination -- a table lookup for the
 * permutation patterns, randrange(k - 1) for uniform, and for hotspot a
 * random() against the fraction falling through to randrange.  Rows
 * are the packets with a destination, so row index == pid.  Stops at a
 * cycle boundary once fewer than k rows of capacity remain. */
#define MT_N 624
#define MT_M 397

static uint32_t genrand_uint32(uint32_t *mt)
{
    uint32_t y;
    if (mt[MT_N] >= MT_N) {
        static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        mt[MT_N] = 0;
    }
    y = mt[mt[MT_N]++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.random(): 53 bits from two draws */
static double mt_random(uint32_t *mt)
{
    uint32_t a = genrand_uint32(mt) >> 5, b = genrand_uint32(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* random.randrange(n), n >= 1: getrandbits(n.bit_length()), rejected
 * until below n */
static i64 mt_randbelow(uint32_t *mt, i64 n)
{
    int shift = __builtin_clzll((unsigned long long)n) - 32;
    i64 r = genrand_uint32(mt) >> shift;
    while (r >= n) r = genrand_uint32(mt) >> shift;
    return r;
}

i64 draw_traffic(
    uint32_t *mt,          /* 625: MT words + position, advanced in place */
    i64 k,                 /* endpoint count                             */
    const i64 *ep_src,     /* k: value written to the src column         */
    const i64 *ep_node,    /* k: node id written to the dest column      */
    const i64 *perm,       /* k: permutation target, -1 = no packet      */
    i64 mode,              /* 0 uniform, 1 permutation, 2 hotspot        */
    double prob, double hot_frac, i64 hot,
    i64 length, i64 warmup, i64 measure_end,
    i64 c0, i64 c1,        /* draw cycles [c0, c1)                       */
    i64 cap,               /* row capacity of the columns                */
    i64 *cycle, i64 *src, i64 *dest, i64 *len, i64 *meas,
    i64 *reached)          /* out: first cycle not drawn                 */
{
    i64 n = 0, c = c0;
    for (; c < c1 && cap - n >= k; c++) {
        i64 measured = warmup <= c && c < measure_end;
        for (i64 i = 0; i < k; i++) {
            if (mt_random(mt) >= prob) continue;
            i64 j;
            if (mode == 1) {
                j = perm[i];
                if (j < 0) continue;
            } else if (mode == 2 && mt_random(mt) < hot_frac && hot != i) {
                j = hot;
            } else {
                if (k < 2) continue;
                j = mt_randbelow(mt, k - 1);
                if (j >= i) j++;
            }
            cycle[n] = c; src[n] = ep_src[i]; dest[n] = ep_node[j];
            len[n] = length; meas[n] = measured;
            n++;
        }
    }
    *reached = c;
    return n;
}

/* The result statistics over the measured packets in ejection order:
 * res = {mean latency, mean hops, max latency, p50, p95, p99}, all 0 for
 * n == 0.  The means are RunningStats.add's Welford recurrence in the
 * same operation order, the percentiles util.stats.percentile's linear
 * interpolation over one sort -- so every double matches the Python
 * oracle bit for bit (compiled with -ffp-contract=off: a fused
 * multiply-add would round differently). */
static int cmp_i64(const void *a, const void *b)
{
    i64 x = *(const i64 *)a, y = *(const i64 *)b;
    return (x > y) - (x < y);
}

i64 result_stats(i64 n, const i64 *lat, const i64 *hops, double *res)
{
    static const double qs[3] = {50.0, 95.0, 99.0};
    double lat_mean = 0.0, hop_mean = 0.0;
    i64 lat_max = 0;
    for (i64 j = 0; j < n; j++) {
        double count = (double)(j + 1);
        lat_mean += ((double)lat[j] - lat_mean) / count;
        hop_mean += ((double)hops[j] - hop_mean) / count;
        if (j == 0 || lat[j] > lat_max) lat_max = lat[j];
    }
    res[0] = lat_mean;
    res[1] = hop_mean;
    res[2] = (double)lat_max;
    if (n == 0) {
        res[3] = res[4] = res[5] = 0.0;
        return 0;
    }
    i64 *ordered = malloc((size_t)n * sizeof(i64));
    if (!ordered) return 1;
    memcpy(ordered, lat, (size_t)n * sizeof(i64));
    qsort(ordered, (size_t)n, sizeof(i64), cmp_i64);
    for (int q = 0; q < 3; q++) {
        double rank = (qs[q] / 100.0) * (double)(n - 1);
        i64 low = (i64)rank;
        i64 high = low + 1 < n - 1 ? low + 1 : n - 1;
        double fraction = rank - (double)low;
        res[3 + q] = (double)ordered[low] * (1.0 - fraction)
                     + (double)ordered[high] * fraction;
    }
    free(ordered);
    return 0;
}
"""

# -ffp-contract=off: result_stats must round like Python, and a fused
# multiply-add (GCC's default on aarch64) would not
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_lock = threading.Lock()
_lib = None
_load_failed = False


def _find_compiler() -> str | None:
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


def _library_path(flags=_CFLAGS) -> str:
    """The cached library's path, named by the source and the flags."""
    digest = hashlib.sha256(
        "\0".join((_KERNEL_SOURCE, *flags)).encode("utf-8")
    ).hexdigest()[:16]
    return os.path.join(tempfile.gettempdir(), f"repro-noc-kernel-{digest}.so")


def _build() -> ctypes.CDLL:
    cached = _library_path()
    if not os.path.exists(cached):
        compiler = _find_compiler()
        if compiler is None:
            raise RuntimeError("no C compiler on PATH")
        workdir = tempfile.mkdtemp(prefix="repro-noc-kernel-")
        try:
            source = os.path.join(workdir, "kernel.c")
            with open(source, "w", encoding="utf-8") as handle:
                handle.write(_KERNEL_SOURCE)
            built = os.path.join(workdir, "kernel.so")
            subprocess.run(
                [compiler, *_CFLAGS, "-o", built, source],
                check=True,
                capture_output=True,
            )
            os.replace(built, cached)  # atomic publish for parallel workers
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    lib = ctypes.CDLL(cached)
    ptr = ctypes.c_void_p  # raw addresses: see _as_ptr
    c64 = ctypes.c_longlong
    lib.run_kernel.restype = c64
    lib.run_kernel.argtypes = [
        c64, c64, c64, c64,          # count, vcs, depth, mesh
        ptr, ptr, ptr,               # neighbor, route, rev
        c64,                         # n_pkts
        ptr, ptr, ptr, ptr, ptr,     # p_cycle, p_src, p_dest, p_len, p_meas
        c64, c64, c64, c64,          # sched_upto, warmup, measure_end, deadline
        c64, c64,                    # start_cycle, stop_cycle
        ptr, ptr, ptr, ptr,          # p_hops, p_eject, p_started, ej_order
        ptr, ptr,                    # counters, out
        c64, c64,                    # interval, s_cap
        ptr, ptr, ptr, ptr, ptr,     # s_cycle, s_inflight, s_occ, s_ej, ej_out
        c64, c64, c64,               # gating, idle_timeout, wakeup
        ptr, ptr, ptr,               # protect, powered, s_gated
        ptr, c64, ptr, ptr, ptr,     # mt, k, ep_src, ep_node, perm
        c64, ctypes.c_double, ctypes.c_double, c64, c64,
                                     # mode, prob, hot_frac, hot, length
        c64, ptr,                    # cap, stats
    ]
    lib.draw_traffic.restype = c64
    lib.draw_traffic.argtypes = [
        ptr,                         # mt
        c64, ptr, ptr, ptr, c64,     # k, ep_src, ep_node, perm, mode
        ctypes.c_double, ctypes.c_double, c64,  # prob, hot_frac, hot
        c64, c64, c64,               # length, warmup, measure_end
        c64, c64, c64,               # c0, c1, cap
        ptr, ptr, ptr, ptr, ptr,     # cycle, src, dest, len, meas
        ptr,                         # reached
    ]
    lib.result_stats.restype = c64
    lib.result_stats.argtypes = [c64, ptr, ptr, ptr]  # n, lat, hops, res
    return lib


def _load() -> ctypes.CDLL | None:
    global _lib, _load_failed
    if _lib is not None or _load_failed:
        return _lib
    with _lock:
        if _lib is None and not _load_failed:
            try:
                _lib = _build()
            except Exception:
                _load_failed = True
    return _lib


def available() -> bool:
    """Whether the compiled kernel can run on this machine.

    False when ``REPRO_NOC_NATIVE`` is set to ``0``/``no``/``off``, when
    no C compiler is on the PATH, or when compilation failed once in
    this process (the failure is remembered, not retried).
    """
    if os.environ.get("REPRO_NOC_NATIVE", "").strip().lower() in ("0", "no", "off"):
        return False
    return _load() is not None


def _as_ptr(array: np.ndarray) -> int:
    """The array's data address (the caller keeps the array alive);
    several times cheaper per call than ``ctypes.data_as``."""
    return array.ctypes.data


class _TrafficSource:
    """One run's packet columns, drawn by the kernel's traffic source.

    The MT19937 state starts as the ``random.getstate()`` of the stream
    ``spec.traffic.build()`` creates and lives in this object, so every
    draw continues the stream -- growing the columns never redraws a
    cycle.  Plain runs let the kernel draw on demand (:meth:`kernel_args`
    hands it the state and the free rows); fault segments pre-draw with
    :meth:`extend_to`.  Row ``r`` of the columns is the packet with pid
    ``r``; ``src`` holds ``src_of[endpoint index]``, ``dest`` the
    destination node id.
    """

    def __init__(self, lib, traffic, src_of, warmup: int, measure_end: int):
        self._lib = lib
        endpoints = traffic.endpoints
        k = len(endpoints)
        self._version, words, self._gauss = traffic.rng_state()
        self._mt = np.array(words, dtype=np.uint32)
        self._ep_src = np.asarray(src_of, dtype=np.int64)
        self._ep_node = np.array(endpoints, dtype=np.int64)
        mode = {"uniform": 0, "hotspot": 2}.get(traffic.pattern, 1)
        perm = [-1] * k
        if mode == 1:
            targets = map(traffic.permutation_target, range(k))
            perm = [-1 if j is None else j for j in targets]
        self._perm = np.array(perm, dtype=np.int64)
        # the same double packets_for_cycle compares against
        probability = traffic.injection_rate / traffic.packet_length
        self._args = (
            mode, probability, traffic.hotspot_fraction,
            endpoints.index(traffic.hotspot_endpoint), traffic.packet_length,
        )
        self._window = (warmup, measure_end)
        self._per_cycle = k * min(1.0, probability)  # expected rows
        self.cols = np.zeros((5, 0), dtype=np.int64)
        self._reached = np.zeros(1, dtype=np.int64)
        self.rows = 0     # packets drawn so far
        self.horizon = 0  # cycles drawn so far

    @property
    def capacity(self) -> int:
        return self.cols.shape[1]

    def rows_for(self, cycles: int) -> int:
        """Room for ``cycles`` more cycles: the expected rows, four
        standard deviations and a few cycles' worth of slack."""
        expected = max(cycles, 0) * self._per_cycle
        return int(expected + 4 * math.sqrt(expected)) + 2 * len(self._ep_node) + 64

    def reserve(self, rows: int) -> None:
        """Grow the columns to hold at least ``rows`` rows (at least
        doubling), keeping the rows drawn."""
        if rows <= self.capacity:
            return
        grown = np.zeros((5, max(rows, 2 * self.capacity)), dtype=np.int64)
        grown[:, :self.rows] = self.cols[:, :self.rows]
        self.cols = grown

    def kernel_args(self) -> tuple:
        """``run_kernel``'s traffic-source arguments, ``mt`` to ``length``."""
        return (_as_ptr(self._mt), len(self._ep_node), _as_ptr(self._ep_src),
                _as_ptr(self._ep_node), _as_ptr(self._perm), *self._args)

    def extend_to(self, limit: int) -> None:
        """Draw every cycle in ``[horizon, limit)``."""
        k = len(self._ep_node)
        while self.horizon < limit:
            if self.capacity - self.rows < k:
                self.reserve(self.rows + self.rows_for(limit - self.horizon))
            cols = self.cols
            self.rows += self._lib.draw_traffic(
                _as_ptr(self._mt),
                k, _as_ptr(self._ep_src), _as_ptr(self._ep_node),
                _as_ptr(self._perm), *self._args, *self._window,
                self.horizon, limit, self.capacity - self.rows,
                *(_as_ptr(cols[r, self.rows:]) for r in range(5)),
                _as_ptr(self._reached),
            )
            self.horizon = int(self._reached[0])

    def columns(self) -> tuple[np.ndarray, ...]:
        """``(cycle, src, dest, len, measured)`` views over the drawn rows."""
        return tuple(self.cols[r, :self.rows] for r in range(5))

    def mt_state(self) -> tuple:
        """The stream position as ``random.getstate()`` would report it."""
        return (self._version, tuple(self._mt.tolist()), self._gauss)


@functools.lru_cache(maxsize=64)
def _region_arrays(topology, routing):
    """Flattened routing/neighbor tables for one region, kernel-ready.

    Returns ``(nodes, slot_of, route, neighbor)`` where ``slot_of`` maps
    a node id to its router index (-1 when outside the region),
    ``route`` maps ``router_index * mesh_size + dest_node`` to an output
    port (adaptive candidate pairs packed as ``8 | (c0 << 4) | (c1 <<
    8)``) and ``neighbor`` maps ``router_index * 5 + port`` to the
    neighboring router index (-1 when unconnected).  Memoized per
    (topology, routing); the arrays are read-only."""
    from repro.noc.routing import build_table

    nodes = tuple(topology.active_nodes)
    count = len(nodes)
    mesh_size = topology.width * topology.height
    slot_of = np.full(mesh_size, -1, dtype=np.int64)
    slot_of[list(nodes)] = np.arange(count)

    route = np.zeros(count * mesh_size, dtype=np.int64)
    for (current, dest), port in build_table(topology, routing).items():
        if type(port) is tuple:
            # adaptive tables hold candidate tuples; singletons collapse
            # to a plain port, pairs pack into one word for the kernel
            port = port[0] if len(port) == 1 else 8 | (port[0] << 4) | (port[1] << 8)
        route[slot_of[current] * mesh_size + dest] = port
    neighbor = np.full(count * PORT_COUNT, -1, dtype=np.int64)
    for i, node in enumerate(nodes):
        for port in range(1, PORT_COUNT):
            other = topology.neighbor(node, PORT_TO_DIRECTION[port])
            if other is not None and slot_of[other] >= 0:
                neighbor[i * PORT_COUNT + port] = slot_of[other]
    for array in (slot_of, route, neighbor):
        array.flags.writeable = False
    return nodes, slot_of, route, neighbor


def _emit_flat_sample(
    tel, span_id, cycle, nodes, occ_list, in_flight, inj_flits, ej_flits,
    gated, gated_cycles, interval,
) -> None:
    """One periodic sample from flat-array state, byte-compatible with the
    reference backend's :func:`_emit_router_sample` payload.

    ``occ_list`` is the per-router buffered-flit counts at the sample
    instant; ``gated`` is the per-router gating flags when a policy is
    active (``None`` otherwise -- every router reads as powered), and a
    gated router is charged the whole ``interval`` into ``gated_cycles``
    exactly like the reference sampler.
    """
    routers = {}
    buffered_total = 0
    for i, node in enumerate(nodes):
        occupancy = occ_list[i]
        buffered_total += occupancy
        is_gated = 1 if gated is not None and gated[i] else 0
        if is_gated:
            gated_cycles[node] = gated_cycles.get(node, 0) + interval
        routers[str(node)] = {
            "inj": inj_flits.get(node, 0),
            "ej": ej_flits.get(node, 0),
            "occ": occupancy,
            "gated": is_gated,
        }
    tel.metrics.histogram(
        "noc_buffer_occupancy_flits",
        help="total buffered flits at sample instants",
        buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
    ).observe(buffered_total)
    tel.tracer.sample(
        {
            "cycle": cycle,
            "in_flight": in_flight,
            "buffered": buffered_total,
            "routers": routers,
        },
        parent=span_id,
    )


# run_kernel's traffic-source arguments when the columns are final
_NO_SOURCE = (None, 0, None, None, None, 0, 0.0, 0.0, 0, 0)


def _kernel_run(lib, spec, region, cols, n_pkts, horizon, start, stop,
                interval, gating, source=None):
    """One kernel invocation over one region's packet columns.

    ``gating`` is ``None`` or ``(idle_timeout, protected_nodes)``.  With
    a ``source`` the kernel draws the traffic on demand into the source's
    columns (``cols``, ``n_pkts`` and ``horizon`` are its state) and the
    source's ``rows`` and ``horizon`` advance to what it drew; the run's
    ``stats`` are then :func:`_result_stats`' six doubles.  Returns the
    kernel's output arrays as a namespace -- ``out`` holds cycles run,
    flags, ejections recorded, created/ejected measured packets, measured
    flits, samples taken, the first visited cycles past warmup and
    measure end, the gate, wake and gated-router-cycle counts, then the
    rows and cycles drawn -- or None on a non-zero status.
    """
    nodes, _, route, neighbor = region
    count = len(nodes)
    cfg = spec.config
    topology = spec.topology
    warmup = spec.warmup_cycles
    measure_end = warmup + spec.measure_cycles
    deadline = measure_end + spec.drain_cycles
    s_cap = deadline // interval + 2 if interval else 1
    cap = source.capacity if source is not None else n_pkts
    rows = max(cap, 1)
    if source is None and not n_pkts:
        cols = (np.zeros(1, dtype=np.int64),) * 5

    def zeros(size):
        return np.zeros(max(size, 1), dtype=np.int64)

    run = SimpleNamespace(
        p_hops=zeros(rows), p_eject=np.full(rows, -1, dtype=np.int64),
        p_started=zeros(rows), ej_order=zeros(rows),
        counters=zeros(count * 4), out=zeros(14),
        s_cycle=zeros(s_cap), s_inflight=zeros(s_cap),
        s_occ=zeros(s_cap * count), s_ej=zeros(s_cap * count),
        ej_out=zeros(count), powered=zeros(count),
        s_gated=zeros(s_cap * count if gating else 1),
        stats=np.zeros(6) if source is not None else None,
    )
    timeout, protected = gating if gating else (0, frozenset())
    protect = np.array([node in protected for node in nodes], dtype=np.int64)
    status = lib.run_kernel(
        count, cfg.vcs_per_port, cfg.buffers_per_vc,
        topology.width * topology.height,
        _as_ptr(neighbor), _as_ptr(route), _as_ptr(_REV),
        n_pkts,
        *(_as_ptr(col) for col in cols),
        horizon, warmup, measure_end, deadline,
        start, stop,
        _as_ptr(run.p_hops), _as_ptr(run.p_eject), _as_ptr(run.p_started),
        _as_ptr(run.ej_order), _as_ptr(run.counters), _as_ptr(run.out),
        interval, s_cap,
        _as_ptr(run.s_cycle), _as_ptr(run.s_inflight), _as_ptr(run.s_occ),
        _as_ptr(run.s_ej), _as_ptr(run.ej_out),
        1 if gating else 0, timeout, _WAKEUP_LATENCY,
        _as_ptr(protect), _as_ptr(run.powered), _as_ptr(run.s_gated),
        *(source.kernel_args() if source is not None else _NO_SOURCE),
        cap, None if run.stats is None else _as_ptr(run.stats),
    )
    if source is not None:
        source.rows, source.horizon = int(run.out[12]), int(run.out[13])
    return run if status == 0 else None


def _result_stats(lib, latencies, hops) -> list | None:
    """``[mean latency, mean hops, max latency, p50, p95, p99]`` over the
    measured packets in ejection order, by the kernel's ``result_stats``
    -- bit for bit ``RunningStats`` and ``util.stats.percentile``; None
    when the kernel could not allocate."""
    lat = np.ascontiguousarray(latencies, dtype=np.int64)
    hop = np.ascontiguousarray(hops, dtype=np.int64)
    res = np.zeros(6)
    if lib.result_stats(len(lat), _as_ptr(lat), _as_ptr(hop), _as_ptr(res)):
        return None
    return res.tolist()


def _emit_run_telemetry(
    tel, spec, traffic, nodes, packet_cols, run, saturated, gating,
) -> None:
    """Replay one kernel run's batched activity capture as telemetry.

    Reconstructs what the reference emits live: the simulate/phase span
    tree, one sample event per captured instant, and the end-of-run
    metrics fold.  Per-router cumulative injection counts (and the
    in-flight contribution of packets created *at* a sample instant,
    which the kernel's capture point precedes) are rebuilt from the
    drawn packet columns; occupancies, ejections and gating flags
    come from the kernel's capture arrays.
    """
    warmup = spec.warmup_cycles
    measure_end = warmup + spec.measure_cycles
    count = len(nodes)
    p_cycle, p_src, p_len = packet_cols
    n_pkts = len(p_cycle)
    out = run.out
    cycles_run, flags = int(out[0]), int(out[1])
    created_measured = int(out[3])
    interval = tel.sample_interval

    tracer = tel.tracer
    sim_span = tracer.span(
        "simulate",
        level=spec.topology.level,
        routing=spec.routing,
        rate=round(traffic.injection_rate, 6),
    )
    phase_span = tracer.span("phase:warmup", parent=sim_span.id)
    # phase boundaries the run actually crossed (an idle exit walks the
    # remaining ones to measure_end, exactly like the reference loop)
    if flags & _FLAG_IDLE_BREAK or cycles_run > warmup:
        phase_span.annotate(end_cycle=warmup)
        phase_span.end()
        phase_span = tracer.span(
            "phase:measure", parent=sim_span.id, start_cycle=warmup
        )
    if cycles_run > measure_end:
        phase_span.annotate(end_cycle=measure_end)
        phase_span.end()
        phase_span = tracer.span(
            "phase:drain", parent=sim_span.id, start_cycle=measure_end
        )

    inj: dict[int, int] = {}
    gated_cycles: dict[int, int] = {}
    ptr = 0
    for k in range(int(out[6])):
        c = int(run.s_cycle[k])
        flits_now = 0
        while ptr < n_pkts and p_cycle[ptr] <= c:
            node = nodes[p_src[ptr]]
            length = p_len[ptr]
            inj[node] = inj.get(node, 0) + length
            if p_cycle[ptr] == c:
                flits_now += length
            ptr += 1
        base = k * count
        occ_row = run.s_occ[base:base + count].tolist()
        ej_row = run.s_ej[base:base + count].tolist()
        ej_map = {nodes[i]: ej_row[i] for i in range(count)}
        _emit_flat_sample(
            tel, sim_span.id, c, nodes, occ_row,
            int(run.s_inflight[k]) + flits_now, inj, ej_map,
            run.s_gated[base:base + count].tolist() if gating else None,
            gated_cycles, interval,
        )
    while ptr < n_pkts and p_cycle[ptr] < cycles_run:
        inj[nodes[p_src[ptr]]] = inj.get(nodes[p_src[ptr]], 0) + p_len[ptr]
        ptr += 1

    ej_out = run.ej_out
    ej_final = {nodes[i]: int(ej_out[i]) for i in range(count) if ej_out[i]}
    _record_sim_metrics(
        tel, cycles_run, created_measured,
        {"measured": int(out[4]), "measured_flits": int(out[5])},
        {"dropped": 0, "retransmitted": 0, "reconfigurations": 0},
        saturated, inj, ej_final, gated_cycles,
    )
    phase_span.annotate(end_cycle=cycles_run)
    phase_span.end()
    sim_span.annotate(
        cycles=cycles_run,
        packets=created_measured,
        saturated=saturated,
        reconfigurations=0,
    )
    sim_span.end()


def execute(
    spec: SimulationSpec, gating_policy=None, telemetry=None
) -> SimulationResult | None:
    """Run ``spec`` on the compiled kernel; None means "use the reference".

    ``gating_policy`` is ``None`` or a plain
    :class:`~repro.noc.power_gating.TimeoutGatingPolicy`, whose rule the
    kernel runs from data (``idle_timeout``, ``protected_nodes`` and the
    reference network's 8-cycle wakeup latency); its ``stats`` gain the
    run's gate, wake and gated-router-cycle counts once the run is
    complete.  Returns None -- meaning "run the reference engine
    instead" -- when the kernel is unavailable, the configuration exceeds
    its fixed-width state (more than ``_MAX_VCS`` virtual channels), the
    timeout is not an integer, or the kernel reports a non-zero status.
    Fault schedules run as a chain of kernel segments, one per
    reconfigured region, with the Python side replaying the reference's
    boundary policy (drop-and-retransmit) between invocations.  With
    active telemetry the kernel batches per-interval activity captures
    and the driver replays them as the spans, samples and metrics the
    reference emits.
    """
    from repro.telemetry import active as _active_telemetry

    if spec.config.vcs_per_port > _MAX_VCS:
        return None
    lib = _load()
    if lib is None:
        return None
    gating = None
    if gating_policy is not None:
        timeout = gating_policy.idle_timeout
        if type(timeout) is not int:
            return None
        # cycle distances lie in [0, deadline], so clamping keeps every
        # comparison and fits the kernel's 64-bit integers
        deadline = spec.warmup_cycles + spec.measure_cycles + spec.drain_cycles
        gating = (max(0, min(timeout, deadline + 1)),
                  gating_policy.protected_nodes)
    tel = _active_telemetry(telemetry)
    interval = tel.sample_interval if tel is not None else 0
    totals = np.zeros(3, dtype=np.int64)  # gates, wakes, gated router-cycles
    run = _execute_faulted if spec.faults else _execute_plain
    result = run(spec, lib, tel, interval, gating, totals)
    if result is not None and gating_policy is not None:
        stats = gating_policy.stats
        stats.gate_events += int(totals[0])
        stats.wake_events += int(totals[1])
        stats.gated_router_cycles += int(totals[2])
    return result


def _first_rows(source, spec) -> int:
    """A plain run's first row capacity: the traffic of the measurement
    window plus up to 2,048 drain cycles.  Most runs drain within a few
    hundred cycles of the window closing; only saturated runs outgrow it."""
    measure_end = spec.warmup_cycles + spec.measure_cycles
    return source.rows_for(
        min(measure_end + spec.drain_cycles,
            measure_end + 1 + min(spec.drain_cycles, 2048))
    )


def _execute_plain(spec, lib, tel, interval, gating, totals):
    """Run an unfaulted spec as one kernel run drawing its own traffic."""
    warmup = spec.warmup_cycles
    measure_cycles = spec.measure_cycles
    measure_end = warmup + measure_cycles
    deadline = measure_end + spec.drain_cycles

    region = _region_arrays(spec.topology, spec.routing)
    nodes, slot_of = region[0], region[1]
    traffic = spec.traffic.build()
    source = _TrafficSource(
        lib, traffic, slot_of[traffic.endpoints], warmup, measure_end
    )
    source.reserve(_first_rows(source, spec))

    while True:
        run = _kernel_run(lib, spec, region, source.cols, source.rows,
                          source.horizon, 0, -1, interval, gating, source)
        if run is None:
            return None
        if not run.out[1] & _FLAG_UNFINISHED:
            break
        # out of rows: grow the columns, keeping the rows drawn, and re-run
        # (the re-run replays them and continues the same stream)
        source.reserve(source.rows + source.rows_for(
            min(deadline, 4 * source.horizon) - source.horizon))

    out = run.out
    totals += out[9:12]
    cycles_run = int(out[0])
    created_measured = int(out[3])
    measured_ejected = int(out[4])
    measured_flits = int(out[5])
    stats = run.stats.tolist()

    saturated = measured_ejected < created_measured
    endpoints = len(traffic.endpoints)

    if tel is not None:
        c_cycle, c_src, _, c_len, _ = source.columns()
        _emit_run_telemetry(
            tel, spec, traffic, nodes,
            (c_cycle.tolist(), c_src.tolist(), c_len.tolist()),
            run, saturated, gating,
        )

    activity = NetworkActivity()
    counts = run.counters.tolist()
    powered = run.powered.tolist()
    for i, node in enumerate(nodes):
        router_activity = activity.router(node)
        router_activity.buffer_writes = counts[i * 4]
        router_activity.buffer_reads = counts[i * 4 + 1]
        router_activity.crossbar_traversals = counts[i * 4 + 1]
        router_activity.switch_arbitrations = counts[i * 4 + 1]
        router_activity.link_traversals = counts[i * 4 + 2]
        router_activity.vc_allocations = counts[i * 4 + 3]
        # never-gated routers are powered for the whole window
        router_activity.cycles_powered = powered[i] if gating else measure_cycles

    return SimulationResult(
        avg_latency=stats[0],
        avg_hops=stats[1],
        max_latency=int(stats[2]),
        p50_latency=stats[3],
        p95_latency=stats[4],
        p99_latency=stats[5],
        packets_measured=created_measured,
        packets_ejected=measured_ejected,
        offered_flits_per_cycle=traffic.injection_rate,
        accepted_flits_per_cycle=(
            measured_flits / (measure_cycles * endpoints)
            if measure_cycles and endpoints
            else 0.0
        ),
        saturated=saturated,
        cycles_run=cycles_run,
        measure_cycles=measure_cycles,
        activity=activity,
        endpoint_count=endpoints,
    )


def _execute_faulted(spec, lib, tel, interval, gating, totals):
    """Run a faulted spec as a chain of fresh-network kernel segments.

    A fault boundary in the reference engine tears the network down and
    rebuilds it from scratch on the reconfigured region, re-injecting
    every surviving packet through the normal NI path -- so the only
    state that crosses a boundary is the survivor list, the fault
    counters and the cumulative telemetry (gating state starts afresh
    with every network, too).  Each segment is therefore an ordinary
    kernel run: it starts at the boundary with the survivors spliced into
    the packet columns (in pid order, ahead of that cycle's creations,
    exactly the reference's re-injection order) and stops at the next
    boundary, where the driver replays the reference's drop-and-
    retransmit policy before launching the next segment.
    """
    from repro.core.faults import reconfigured_topology

    planned = spec.topology
    faults = spec.faults

    warmup = spec.warmup_cycles
    measure_cycles = spec.measure_cycles
    measure_end = warmup + measure_cycles
    deadline = measure_end + spec.drain_cycles

    traffic = spec.traffic.build()
    # global columns carry node ids; each segment maps them to its region
    source = _TrafficSource(lib, traffic, traffic.endpoints, warmup, measure_end)
    boundaries = faults.boundaries()

    counters = {
        "dropped": 0, "retransmitted": 0, "rerouted": 0,
        "lost_measured": 0, "reconfigurations": 0,
    }
    min_level = planned.level
    created_measured = measured_ejected = measured_flits = 0
    latencies: list[np.ndarray] = []  # per segment, in ejection order
    hops: list[np.ndarray] = []
    activity = NetworkActivity()
    segments: list[dict] = []  # per-segment telemetry replay payloads
    reconf_events: list[tuple[int, int]] = []  # (boundary cycle, new level)

    region, routing = planned, spec.routing
    degraded = False
    seg_start, next_b = 0, 0
    seeds = np.zeros(0, dtype=np.int64)  # surviving global rows, pid order
    cycles_run = 0
    idle_break = False
    # first *visited* cycle at/past each phase threshold, reference-true:
    # the reference lands on every busy cycle, including ones whose whole
    # creation batch is dropped -- invisible to the kernel, so they merge
    # in from the driver-side drop list
    first_wu = first_me = -1

    def _merge_first(cur: int, cand: int) -> int:
        return cand if cur < 0 or 0 <= cand < cur else cur

    while True:
        stop = boundaries[next_b] if next_b < len(boundaries) else -1
        arrays = _region_arrays(region, routing)
        nodes, slot_of = arrays[0], arrays[1]
        for node in nodes:
            activity.router(node)

        # traffic horizon for this segment: a stopped segment needs
        # exactly [seg_start, stop); a final one starts modest and grows
        # on UNFINISHED like the unfaulted driver
        if stop >= 0:
            limit = stop
        else:
            limit = min(
                deadline,
                max(measure_end + 1, seg_start + 1)
                + min(spec.drain_cycles, 2048),
            )
        n_seed = len(seeds)
        while True:
            source.extend_to(limit)
            g_cycle, g_src, g_dest, g_len, g_meas = source.columns()
            lo, hi = np.searchsorted(g_cycle, (seg_start, limit))
            rows = np.arange(lo, hi)
            drop_cycles: list[int] = []  # creation-time drops, per cycle
            if degraded:
                inside = (slot_of[g_src[lo:hi]] >= 0) & (slot_of[g_dest[lo:hi]] >= 0)
                drop_cycles = g_cycle[lo:hi][~inside].tolist()
                rows = rows[inside]
            # segment row -> global row; ascending, since the seeds were
            # created before this segment's rows
            g_rows = np.concatenate((seeds, rows))
            n_pkts = len(g_rows)
            seg_cycle = g_cycle[g_rows]
            seg_cycle[:n_seed] = seg_start
            cols = [seg_cycle, slot_of[g_src[g_rows]], g_dest[g_rows],
                    g_len[g_rows], g_meas[g_rows]]
            run = _kernel_run(lib, spec, arrays, cols, n_pkts, limit,
                              seg_start, stop, interval, gating)
            if run is None:
                return None  # nothing emitted yet; fall back cleanly
            out = run.out
            flags = int(out[1])
            if flags & _FLAG_UNFINISHED:
                limit = min(deadline, max(limit * 4, limit + 1))
                continue
            break

        # fold this segment's activity and powered cycles (per router
        # under gating, else the segment's overlap with the window)
        totals += out[9:12]
        counts = run.counters.tolist()
        powered = run.powered.tolist()
        stopped = bool(flags & _FLAG_BOUNDARY)
        span = (min(stop, measure_end) if stopped else measure_end) - max(
            seg_start, warmup
        )
        for i, node in enumerate(nodes):
            ra = activity.router(node)
            ra.buffer_writes += counts[i * 4]
            ra.buffer_reads += counts[i * 4 + 1]
            ra.crossbar_traversals += counts[i * 4 + 1]
            ra.switch_arbitrations += counts[i * 4 + 1]
            ra.link_traversals += counts[i * 4 + 2]
            ra.vc_allocations += counts[i * 4 + 3]
            if gating:
                ra.cycles_powered += powered[i]
            elif span > 0:
                ra.cycles_powered += span

        # global tallies: the kernel re-counts re-injected seeds in its
        # created_measured (they enter through the normal NI path), the
        # driver nets them back out
        created_measured += int(out[3]) - int(g_meas[seeds].sum())
        measured_ejected += int(out[4])
        measured_flits += int(out[5])
        order = run.ej_order[:int(out[2])]
        latencies.append(run.p_eject[order] - g_cycle[g_rows[order]])
        hops.append(run.p_hops[order])
        # creation-time drops count only for cycles the loop visited
        cap = stop if stopped else int(out[0])
        counters["dropped"] += sum(1 for c in drop_cycles if c < cap)
        first_wu = _merge_first(first_wu, int(out[7]))
        first_me = _merge_first(first_me, int(out[8]))
        first_wu = _merge_first(
            first_wu, next((c for c in drop_cycles if warmup <= c < cap), -1)
        )
        first_me = _merge_first(
            first_me,
            next((c for c in drop_cycles if measure_end <= c < cap), -1),
        )

        if tel is not None:
            segments.append(dict(
                nodes=nodes, n_seed=n_seed, p_cycle=seg_cycle.tolist(),
                p_src=cols[1].tolist(), p_len=cols[3].tolist(), run=run,
                cap=cap,
            ))

        if not stopped:
            cycles_run = int(out[0])
            idle_break = bool(flags & _FLAG_IDLE_BREAK)
            break

        # boundary: reconfigure and replay drop-and-retransmit over the
        # unejected rows, in pid order like Network.extract_in_flight;
        # reconfigured regions always route CDOR (sound on any convex
        # region, equals XY on the restored full mesh)
        region = reconfigured_topology(planned, faults, stop)
        degraded = region is not planned
        routing = "cdor"
        keep = _region_arrays(region, routing)[1]
        alive = np.flatnonzero(run.p_eject[:n_pkts] < 0)
        survivors = g_rows[alive]
        started = run.p_started[alive] != 0
        kept = (keep[g_src[survivors]] >= 0) & (keep[g_dest[survivors]] >= 0)
        seeds = survivors[kept]
        counters["retransmitted"] += int(np.count_nonzero(started[kept]))
        counters["rerouted"] += int(np.count_nonzero(~started[kept]))
        counters["dropped"] += int(np.count_nonzero(~kept))
        counters["lost_measured"] += int(g_meas[survivors[~kept]].sum())
        counters["reconfigurations"] += 1
        min_level = min(min_level, region.level)
        reconf_events.append((stop, region.level))
        seg_start = stop
        next_b += 1

    stats = _result_stats(lib, np.concatenate(latencies), np.concatenate(hops))
    if stats is None:
        return None
    saturated = (
        measured_ejected < created_measured - counters["lost_measured"]
    )
    endpoints = len(traffic.endpoints)

    if tel is not None:
        _emit_faulted_telemetry(
            tel, spec, traffic, segments, reconf_events, first_wu, first_me,
            cycles_run, idle_break, deadline, saturated, created_measured,
            measured_ejected, measured_flits, counters, gating,
        )

    return SimulationResult(
        avg_latency=stats[0],
        avg_hops=stats[1],
        max_latency=int(stats[2]),
        p50_latency=stats[3],
        p95_latency=stats[4],
        p99_latency=stats[5],
        packets_measured=created_measured,
        packets_ejected=measured_ejected,
        offered_flits_per_cycle=traffic.injection_rate,
        accepted_flits_per_cycle=(
            measured_flits / (measure_cycles * endpoints)
            if measure_cycles and endpoints
            else 0.0
        ),
        saturated=saturated,
        cycles_run=cycles_run,
        measure_cycles=measure_cycles,
        activity=activity,
        endpoint_count=endpoints,
        packets_dropped=counters["dropped"],
        packets_retransmitted=counters["retransmitted"],
        packets_rerouted=counters["rerouted"],
        reconfigurations=counters["reconfigurations"],
        min_region_level=min_level,
    )


def _emit_faulted_telemetry(
    tel, spec, traffic, segments, reconf_events, first_wu, first_me,
    cycles_run, idle_break, deadline, saturated, created_measured,
    measured_ejected, measured_flits, counters, gating,
) -> None:
    """Replay a segmented faulted run's telemetry in reference order.

    Phase-span transitions happen at the first *visited* cycle past each
    threshold (the kernel reports it per segment), reconfigure spans at
    their boundary cycle -- a boundary that coincides with a transition
    keeps the reference order: boundary processing precedes the phase
    check, so the reconfigure span lands in the outgoing phase's span.
    Samples replay per segment with the cumulative injection/ejection
    maps carried across boundaries, like the reference's live dicts.
    """
    warmup = spec.warmup_cycles
    measure_end = warmup + spec.measure_cycles
    interval = tel.sample_interval

    tracer = tel.tracer
    sim_span = tracer.span(
        "simulate",
        level=spec.topology.level,
        routing=spec.routing,
        rate=round(traffic.injection_rate, 6),
    )
    phase_span = tracer.span("phase:warmup", parent=sim_span.id)
    phase = 0

    def flip_measure():
        nonlocal phase, phase_span
        phase = 1
        phase_span.annotate(end_cycle=warmup)
        phase_span.end()
        phase_span = tracer.span(
            "phase:measure", parent=sim_span.id, start_cycle=warmup
        )

    def flip_drain():
        nonlocal phase, phase_span
        phase = 2
        phase_span.annotate(end_cycle=measure_end)
        phase_span.end()
        phase_span = tracer.span(
            "phase:drain", parent=sim_span.id, start_cycle=measure_end
        )

    for boundary, level in reconf_events:
        if phase == 0 and 0 <= first_wu < boundary:
            flip_measure()
        if phase == 1 and 0 <= first_me < boundary:
            flip_drain()
        reconf_span = tracer.span(
            "reconfigure", parent=phase_span.id, cycle=boundary
        )
        reconf_span.annotate(level=level)
        reconf_span.end()
        if phase == 0 and 0 <= first_wu <= boundary:
            flip_measure()
        if phase == 1 and 0 <= first_me <= boundary:
            flip_drain()
    if phase == 0 and (first_wu >= 0 or idle_break):
        flip_measure()
    if phase == 1 and (
        first_me >= 0 or (idle_break and deadline > measure_end)
    ):
        flip_drain()

    inj: dict[int, int] = {}
    ej_base: dict[int, int] = {}
    gated_cycles: dict[int, int] = {}
    for seg in segments:
        nodes = seg["nodes"]
        count = len(nodes)
        p_cycle, p_src, p_len = seg["p_cycle"], seg["p_src"], seg["p_len"]
        n_rows, n_seed = len(p_cycle), seg["n_seed"]
        run = seg["run"]
        ptr = 0
        for k in range(int(run.out[6])):
            c = int(run.s_cycle[k])
            # the kernel captures before the cycle's queue entries; the
            # reference samples after them, so fold in this instant's
            # rows (re-injected seeds count toward in-flight flits but
            # not toward the cumulative injection map)
            flits_now = 0
            while ptr < n_rows and p_cycle[ptr] <= c:
                if p_cycle[ptr] == c:
                    flits_now += p_len[ptr]
                if ptr >= n_seed:
                    node = nodes[p_src[ptr]]
                    inj[node] = inj.get(node, 0) + p_len[ptr]
                ptr += 1
            base = k * count
            occ_row = run.s_occ[base:base + count].tolist()
            ej_row = run.s_ej[base:base + count].tolist()
            ej_map = {
                nodes[i]: ej_base.get(nodes[i], 0) + ej_row[i]
                for i in range(count)
            }
            _emit_flat_sample(
                tel, sim_span.id, c, nodes, occ_row,
                int(run.s_inflight[k]) + flits_now, inj, ej_map,
                run.s_gated[base:base + count].tolist() if gating else None,
                gated_cycles, interval,
            )
        while ptr < n_rows and p_cycle[ptr] < seg["cap"]:
            if ptr >= n_seed:
                node = nodes[p_src[ptr]]
                inj[node] = inj.get(node, 0) + p_len[ptr]
            ptr += 1
        ej_out = run.ej_out
        for i, node in enumerate(nodes):
            if ej_out[i]:
                ej_base[node] = ej_base.get(node, 0) + int(ej_out[i])

    _record_sim_metrics(
        tel, cycles_run, created_measured,
        {"measured": measured_ejected, "measured_flits": measured_flits},
        counters, saturated, inj, ej_base, gated_cycles,
    )
    phase_span.annotate(end_cycle=cycles_run)
    phase_span.end()
    sim_span.annotate(
        cycles=cycles_run,
        packets=created_measured,
        saturated=saturated,
        reconfigurations=counters["reconfigurations"],
    )
    sim_span.end()


class VectorizedBackend:
    """The compiled fast path, with the reference engine as its fallback.

    Runs the C kernel when it is available and the run's gating policy is
    ``None`` or exactly a :class:`TimeoutGatingPolicy` (a subclass may
    override ``step``, so it takes the reference).  Everything else --
    no compiler, ``REPRO_NOC_NATIVE=0``, more than ``_MAX_VCS`` virtual
    channels, a non-zero kernel status, any other policy object -- runs
    on the reference engine, so results are bit-identical either way.
    """

    name = "vectorized"

    def run(
        self, spec: SimulationSpec, *, gating_policy=None, telemetry=None
    ) -> SimulationResult:
        if (
            gating_policy is None or type(gating_policy) is TimeoutGatingPolicy
        ) and available():
            result = execute(spec, gating_policy, telemetry)
            if result is not None:
                return result
        return ReferenceBackend().run(
            spec, gating_policy=gating_policy, telemetry=telemetry
        )


__all__ = ["VectorizedBackend", "available", "execute"]
