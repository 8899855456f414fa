/* _union_accel: compiled event kernel for the repro PDES engines.
 *
 * One C type, Kernel, owns the (time, priority, seq) binary heap and
 * runs the commit loop of the sequential and conservative (YAWNS)
 * schedulers.  Every LP has a dispatch row of one of two kinds:
 *
 *   generic Python   the Event object goes to the bound lp.handle;
 *   resident fabric  the LP is a router or terminal of a NetworkFabric
 *                    the kernel adopted at construction: its state lives
 *                    in the C structs below and its "pkt", "drain" and
 *                    "inj_done" events are native heap entries handled
 *                    without entering Python (router arrival and port
 *                    choice, NIC drain, minimal/UGAL path selection on a
 *                    bit-identical SplitMix, delivery and reassembly).
 *
 * Python is entered once per message (inject() on the way in, the
 * fabric's injected/delivered seams on the way out), for generic LPs,
 * and for routing policies the kernel does not implement (one
 * select_path call per packet at NIC departure).  Messages a resident
 * rank sends (_ranks.c) cross no seam at all: the rank machine injects
 * them and takes their injection and delivery natively, and Python is
 * entered to resume the rank's generator.
 *
 * Coherence is pulled, not pushed: kern_flush() writes everything
 * touched since the last flush into the Python objects that mirror it
 * (RouterLP.busy_until / pending_starts / packets_forwarded,
 * TerminalLP.inj_queue / busy_until, link and per-app byte counters in
 * first-touch order, packet counters, routing stream states) only where
 * Python can read the model: on return from run(), also when a handler
 * raised; on entry to a generic LP's handler; before a Python
 * select_path; in set_policy; at an app-counter bin-edge handoff; and
 * when Python asks (flush(), i.e. NetworkFabric.sync()).  The
 * per-message seams do not flush -- their callbacks see the mirrors as
 * of the last flush.  Each flush costs O(what changed since the last
 * one); the NIC FIFO mirror in particular is built at flush time from
 * the native FIFO, never per injected packet.
 *
 * Contracts kept in lockstep with the Python side:
 *
 *   - entry layout + compare order: repro/pdes/eventheap.py
 *     (ENTRY_FIELDS == ("time", "priority", "seq"); min-heap, seq is
 *     unique so the compare never needs the payload);
 *   - seq packing: Engine.schedule_fast -- slot = origin + 1,
 *     seq = (slot << 40) | counter, counter bumped per slot; native
 *     events draw from the same counters;
 *   - loop semantics: SequentialEngine.run and ConservativeEngine.run/
 *     commit_window, including budget (-1 unlimited, 0 commits
 *     nothing, stop when committed == budget), the horizon advance,
 *     and the finally-clause bookkeeping on handler exceptions;
 *   - model semantics: network/router.py, terminal.py, routing.py and
 *     pdes/rng.py, operation for operation (IEEE doubles in the same
 *     order; build without -ffast-math, see accel/build.py);
 *   - the adoption row: accel/dispatch.py builds and range-checks it,
 *     adopt() reads it; ABI_VERSION moves whenever the layout does.
 */

#include "_kernel.h"

#include <structmember.h>

#include <assert.h>
#include <math.h>
#include <string.h>

static PyObject *str_seq, *str_kind, *str_state, *str_popleft, *str_append,
    *str_packets_forwarded, *str_busy_until, *str_bind_source;
static PyTypeObject *deque_type; /* collections.deque */

/* ---------------------------------------------------------------- */
/* heap entries                                                      */

static const char *const ev_names[] = {"", "pkt", "pkt", "drain", "inj_done",
                                       "loopback", "wake"};

/* (the pool reallocates, so a packet cannot point into itself) */
#define PKT_PATH(p) ((p)->plen > PATH_INLINE ? (p)->ext : (p)->inl)

enum { POL_MIN = 0, POL_ADP, POL_PY };

static inline int
entry_lt(const entry_t *a, const entry_t *b)
{
    if (a->time != b->time)
        return a->time < b->time;
    if (a->prio != b->prio)
        return a->prio < b->prio;
    return a->seq < b->seq;
}

/* ---------------------------------------------------------------- */
/* heap primitives (mirror heapq's sift algorithms)                  */

static void
heap_siftdown(entry_t *h, Py_ssize_t start, Py_ssize_t pos)
{
    entry_t item = h[pos];
    while (pos > start) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!entry_lt(&item, &h[parent]))
            break;
        h[pos] = h[parent];
        pos = parent;
    }
    h[pos] = item;
}

static void
heap_siftup(entry_t *h, Py_ssize_t len, Py_ssize_t pos)
{
    Py_ssize_t start = pos;
    entry_t item = h[pos];
    Py_ssize_t child = 2 * pos + 1;
    while (child < len) {
        Py_ssize_t right = child + 1;
        if (right < len && !entry_lt(&h[child], &h[right]))
            child = right;
        h[pos] = h[child];
        pos = child;
        child = 2 * pos + 1;
    }
    h[pos] = item;
    heap_siftdown(h, start, pos);
}

/* push steals the Event reference of an EV_PY entry on success */
static int
heap_push(KernelObject *k, entry_t *e)
{
    if (k->len == k->cap) {
        Py_ssize_t cap = k->cap ? k->cap * 2 : 256;
        entry_t *h = PyMem_Realloc(k->heap, (size_t)cap * sizeof(entry_t));
        if (!h) {
            PyErr_NoMemory();
            return -1;
        }
        k->heap = h;
        k->cap = cap;
    }
    k->heap[k->len] = *e;
    heap_siftdown(k->heap, 0, k->len);
    if (++k->len > k->heap_peak)
        k->heap_peak = k->len;
    return 0;
}

static void
heap_pop(KernelObject *k, entry_t *out)
{
    *out = k->heap[0];
    k->len--;
    if (k->len) {
        k->heap[0] = k->heap[k->len];
        heap_siftup(k->heap, k->len, 0);
    }
}

/* ---------------------------------------------------------------- */
/* scheduling                                                        */

/* Matches ConservativeEngine._push's message byte for byte; `what` is
 * the offending event's repr. */
static void
raise_lookahead(KernelObject *k, PyObject *what, double time, double send_time)
{
    char delay[32], la[32];
    PyOS_snprintf(delay, sizeof(delay), "%.3e", time - send_time);
    PyOS_snprintf(la, sizeof(la), "%.3e", k->lookahead);
    PyErr_Format(PyExc_RuntimeError,
                 "lookahead violation: cross-partition event %S scheduled "
                 "with delay %s < lookahead %s", what, delay, la);
}

/* A native event's seq, drawn by the dispatching LP exactly as
 * Engine.schedule_fast draws it, then the engine's _push lookahead
 * check: -1 (error set) when the event breaks it. */
static int
native_seq(KernelObject *k, double time, int32_t dst, int kind, int prio,
           int64_t *seq)
{
    long slot = k->origin + 1;
    int64_t c = k->counters[slot];
    k->counters[slot] = c + 1;
    *seq = ((int64_t)slot << SEQ_ORIGIN_SHIFT) | c;
    if (k->conservative && k->current_partition >= 0
        && k->lps[dst].part != k->current_partition
        && time < k->now + k->lookahead) {
        char buf[160];
        PyOS_snprintf(buf, sizeof(buf),
                      "Event(t=%.9f, dst=%d, kind='%s', prio=%d, seq=%lld)",
                      time, (int)dst, ev_names[kind], prio, (long long)*seq);
        PyObject *what = PyUnicode_FromString(buf);
        if (what) {
            raise_lookahead(k, what, time, k->now);
            Py_DECREF(what);
        }
        return -1;
    }
    return 0;
}

/* A fabric LP or a resident rank schedules a native event:
 * Engine.schedule_fast plus the engine's _push, without an Event. */
int
kern_sched(KernelObject *k, double time, int32_t dst, int kind, int prio,
           int64_t ref)
{
    entry_t e;
    if (native_seq(k, time, dst, kind, prio, &e.seq) < 0)
        return -1;
    e.time = time;
    e.dst = dst;
    e.prio = (int16_t)prio;
    e.kind = (int16_t)kind;
    e.u.ref = ref;
    return heap_push(k, &e);
}

/* ---------------------------------------------------------------- */
/* fabric: small state helpers                                       */

int
kern_dirty_reserve(fabric_t *f)
{
    size_t n = (size_t)f->n_ports + f->n_routers + f->n_links + f->n_nodes
        + (size_t)f->n_apps * (f->n_routers + 2)
        + (size_t)f->n_pols * f->n_routers + (size_t)f->n_extra + 1;
    dirty_t *d = PyMem_Realloc(f->dirty, n * sizeof(dirty_t));
    if (!d) {
        PyErr_NoMemory();
        return -1;
    }
    f->dirty = d;
    return 0;
}

/* Make room for one more element of `size` bytes in a zero-filled,
 * doubling array. */
int
kern_grow(void *arr, int32_t n, int32_t *cap, size_t size)
{
    if (n < *cap)
        return 0;
    int32_t ncap = *cap ? *cap * 2 : 64;
    char *p = PyMem_Realloc(*(void **)arr, (size_t)ncap * size);
    if (!p) {
        PyErr_NoMemory();
        return -1;
    }
    memset(p + (size_t)*cap * size, 0, (size_t)(ncap - *cap) * size);
    *(void **)arr = p;
    *cap = ncap;
    return 0;
}

/* Copy the int array `res` (stolen; array('i') from accel/dispatch.py)
 * into out[0..cap); returns its length. */
static Py_ssize_t
take_ints(PyObject *res, int32_t *out, Py_ssize_t cap)
{
    Py_buffer b;
    Py_ssize_t n = -1;
    if (!res)
        return -1;
    if (PyObject_GetBuffer(res, &b, PyBUF_SIMPLE) == 0) {
        if (b.len % 4 || b.len / 4 > cap)
            PyErr_SetString(PyExc_ValueError, "router path too long");
        else {
            n = b.len / 4;
            memcpy(out, b.buf, (size_t)b.len);
        }
        PyBuffer_Release(&b);
    }
    Py_DECREF(res);
    return n;
}

/* RouterLP.queue_depth's lazy pruning of transmit starts that passed */
static inline void
port_prune(fabric_t *f, port_t *p, double now)
{
    while (p->head < p->tail && p->ring[p->head & (p->cap - 1)] <= now) {
        p->head++;
        mark(f, D_PORT, (int32_t)(p - f->ports), &p->dirty);
    }
}

static inline int64_t
port_depth(fabric_t *f, port_t *p, double now)
{
    port_prune(f, p, now);
    return (p->tail - p->head) + (now < p->busy ? 1 : 0);
}

/* Make room for one more item of `size` bytes in the power-of-two
 * ring holding items [head, tail) (absolute counts): the ring to use
 * from now on (a larger copy once it is full, the old one freed), or
 * NULL with MemoryError set and the old ring kept. */
static void *
ring_reserve(void *ring, int32_t *cap, int64_t head, int64_t tail,
             size_t size)
{
    if (tail - head < *cap)
        return ring;
    int32_t ncap = *cap ? *cap * 2 : 8;
    char *r = PyMem_Malloc((size_t)ncap * size);
    const char *old = ring;
    if (!r) {
        PyErr_NoMemory();
        return NULL;
    }
    for (int64_t i = head; i < tail; i++)
        memcpy(r + (size_t)(i & (ncap - 1)) * size,
               old + (size_t)(i & (*cap - 1)) * size, size);
    PyMem_Free(ring);
    *cap = ncap;
    return r;
}

static int
port_push(port_t *p, double start)
{
    double *r = ring_reserve(p->ring, &p->cap, p->head, p->tail,
                             sizeof(double));
    if (!r)
        return -1;
    p->ring = r;
    p->ring[p->tail++ & (p->cap - 1)] = start;
    return 0;
}

/* Schedule packet pi's arrival at the far end of port idx.  One port's
 * arrivals are already in (time, priority, seq) order: done never
 * decreases (start = max(busy, now), bw > 0), extra is fixed at
 * adoption, and every seq is drawn by the one router LP.  So they wait
 * in the port's FIFO and only its head is a heap entry (ref = port);
 * port_pop pushes each next head in turn with its original time and
 * seq. */
static int
port_send(KernelObject *k, fabric_t *f, int32_t idx, double time, int32_t pi)
{
    port_t *pt = &f->ports[idx];
    int32_t dst = f->prow[idx].peer;
    int64_t seq;
    if (native_seq(k, time, dst, EV_PKT, PRIO_NETWORK, &seq) < 0)
        return -1;
    arrival_t *fifo = ring_reserve(pt->fifo, &pt->fcap, pt->fhead, pt->ftail,
                                   sizeof(arrival_t));
    if (!fifo)
        return -1;
    pt->fifo = fifo;
#ifdef UNION_ACCEL_DEBUG
    if (pt->fhead < pt->ftail) {
        const arrival_t *last = &fifo[(pt->ftail - 1) & (pt->fcap - 1)];
        assert(time > last->time || (time == last->time && seq > last->seq));
    }
#endif
    fifo[pt->ftail & (pt->fcap - 1)] = (arrival_t){time, seq, pi};
    if (pt->ftail++ > pt->fhead)
        return 0;            /* the heap already holds this port's head */
    entry_t e = {.time = time, .seq = seq, .dst = dst, .prio = PRIO_NETWORK,
                 .kind = EV_PORT, .u.ref = idx};
    return heap_push(k, &e);
}

/* The heap just gave up port idx's head: take its packet off the FIFO
 * and push the next head, if any, into the slot just freed.  The
 * packet, or -1 (error set). */
static int32_t
port_pop(KernelObject *k, fabric_t *f, int32_t idx)
{
    port_t *pt = &f->ports[idx];
    int32_t pi = pt->fifo[pt->fhead++ & (pt->fcap - 1)].pkt;
    if (pt->fhead == pt->ftail)
        return pi;
    const arrival_t *a = &pt->fifo[pt->fhead & (pt->fcap - 1)];
    entry_t e = {.time = a->time, .seq = a->seq, .dst = f->prow[idx].peer,
                 .prio = PRIO_NETWORK, .kind = EV_PORT, .u.ref = idx};
    return heap_push(k, &e) < 0 ? -1 : pi;
}

static inline void
link_add(fabric_t *f, int32_t link, int64_t nbytes)
{
    f->link_delta[link] += nbytes;
    mark(f, D_LINK, link, &f->link_dirty[link]);
}

/* Candidate ports of router r towards neighbour `next` (NULL: none). */
static const int32_t *
adj_ports(fabric_t *f, int32_t r, int32_t next, int32_t *cnt)
{
    for (int32_t i = f->rrow[r].adj0; i < f->rrow[r + 1].adj0; i++)
        if (f->adj[2 * i] == next) {
            *cnt = f->adj[2 * i + 3] - f->adj[2 * i + 1];
            return f->cand + f->adj[2 * i + 1];
        }
    *cnt = 0;
    return NULL;
}

int32_t
kern_app_slot(fabric_t *f, int64_t app_id)
{
    for (int32_t i = 0; i < f->n_apps; i++)
        if (f->apps[i].app_id == app_id)
            return i;
    int32_t n = f->n_apps, nr = f->n_routers;
    app_t *a = PyMem_Realloc(f->apps, (size_t)(n + 1) * sizeof(app_t));
    if (a)
        f->apps = a;
    cell_t *c = PyMem_Realloc(f->cells, (size_t)(n + 1) * nr * sizeof(cell_t));
    if (c)
        f->cells = c;
    if (!a || !c) {
        PyErr_NoMemory();
        return -1;
    }
    memset(&f->apps[n], 0, sizeof(app_t));
    memset(&f->cells[(size_t)n * nr], 0, (size_t)nr * sizeof(cell_t));
    f->apps[n].app_id = app_id;
    f->apps[n].policy = -1;
    f->n_apps = n + 1; /* counted by kern_dirty_reserve */
    if (kern_dirty_reserve(f) < 0) {
        f->n_apps = n;
        return -1;
    }
    return n;
}

/* WindowedAppCounter.record */
static int
app_rec(KernelObject *k, fabric_t *f, int32_t rid, int32_t app, double now,
        int64_t size)
{
    int64_t b = (int64_t)(now / f->window);
    cell_t *c = &f->cells[(size_t)app * f->n_routers + rid];
    int edge = now == (double)b * f->window;
    /* A record exactly on a bin edge (rare) goes to Python, which keeps
     * the edge side channel; that, and a cell moving on to its next
     * window, first write out what is pending to keep first-touch order. */
    if ((edge || (c->dirty && c->bin != b)) && kern_flush(k) < 0)
        return -1;
    if (edge) {
        k->py_entries++;
        PyObject *r = PyObject_CallFunction(f->o[O_APP_RECORD], "iLdL", (int)rid,
                                            (long long)f->apps[app].app_id,
                                            now, (long long)size);
        Py_XDECREF(r);
        return r ? 0 : -1;
    }
    if (!c->dirty) {
        c->bin = b;
        mark(f, D_CELL, app * f->n_routers + rid, &c->dirty);
    }
    c->delta += size;
    return 0;
}

int32_t
kern_msg_alloc(fabric_t *f)
{
    int32_t i = f->free_msg;
    if (i >= 0) {
        f->free_msg = f->msgs[i].next;
        return i;
    }
    if (kern_grow(&f->msgs, f->n_msgs, &f->cap_msgs, sizeof(msg_t)) < 0)
        return -1;
    return f->n_msgs++;
}

void
kern_msg_release(fabric_t *f, int32_t i)
{
    msg_t *m = &f->msgs[i];
    if (m->injected && m->delivered) {
        m->next = f->free_msg;
        f->free_msg = i;
    }
}

static int32_t
pkt_alloc(fabric_t *f)
{
    int32_t i = f->free_pkt;
    if (i >= 0) {
        f->free_pkt = f->pkts[i].next_free;
        return i;
    }
    if (kern_grow(&f->pkts, f->n_pkts, &f->cap_pkts, sizeof(pkt_t)) < 0)
        return -1;
    return f->n_pkts++;
}

static void
pkt_free(fabric_t *f, int32_t i)
{
    pkt_t *p = &f->pkts[i];
    if (p->plen > PATH_INLINE)
        PyMem_Free(p->ext);
    p->plen = 0;
    p->next_free = f->free_pkt;
    f->free_pkt = i;
}

/* ---------------------------------------------------------------- */
/* SplitMix (pdes/rng.py) and path selection (network/routing.py)    */

#define SM_GOLDEN 0x9E3779B97F4A7C15ULL

static inline uint64_t
sm_next(uint64_t *state)
{
    uint64_t z = (*state += SM_GOLDEN);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* path += tails[draw() % len(tails)] for the local move src -> dst;
 * topo.local_paths(src, dst) is fetched once per pair (flattened and
 * range-checked by accel/dispatch.py: ntails, then len, routers...). */
static int
append_tail(fabric_t *f, uint64_t *st, int32_t src, int32_t dst,
            int32_t *path, int n)
{
    int32_t *at = &f->tails_at[(size_t)src * f->rpg + dst % f->rpg];
    if (!*at) {
        int32_t flat[4 * PATH_MAX_HOPS];
        f->py_calls++;
        Py_ssize_t len = take_ints(
            PyObject_CallFunction(f->o[O_LOCAL_TAILS], "ii", (int)src, (int)dst),
            flat, 4 * PATH_MAX_HOPS);
        if (len < 0)
            return -1;
        int32_t start = f->n_tails ? f->n_tails : 1;
        while (start + len > f->cap_tails)
            if (kern_grow(&f->tails, f->cap_tails, &f->cap_tails, 4) < 0)
                return -1;
        memcpy(f->tails + start, flat, (size_t)len * 4);
        f->n_tails = start + (int32_t)len;
        *at = start;
    }
    const int32_t *t = f->tails + *at;
    uint64_t pick = sm_next(st) % (uint64_t)t[0];
    t++;
    while (pick--)
        t += t[0] + 1;
    if (n + t[0] >= PATH_MAX_HOPS) { /* room for one more hop after it */
        PyErr_SetString(PyExc_ValueError, "router path too long");
        return -1;
    }
    for (int32_t i = 1; i <= t[0]; i++)
        path[n++] = t[i];
    return n;
}

/* One random (gateway, entry router) pair from group g1 into group g:
 * the gateways[g1][g] and global_ports_to_group[gw][g] draws. */
static int
global_hop(fabric_t *f, uint64_t *st, int32_t g1, int32_t g, int32_t *gw1,
           int32_t *entry)
{
    const int32_t *at = f->gw + g1 * f->n_groups + g;
    int32_t n = at[1] - at[0];
    if (n > 0) {
        *gw1 = f->gw[at[0] + sm_next(st) % (uint64_t)n];
        at = f->gp + *gw1 * f->n_groups + g;
        n = at[1] - at[0];
    }
    if (n <= 0) {
        PyErr_Format(PyExc_KeyError, "%d", (int)g);
        return -1;
    }
    int32_t port = f->gp[at[0] + sm_next(st) % (uint64_t)n];
    *entry = f->prow[f->rrow[*gw1].port0 + port].peer_router;
    return 0;
}

/* RoutingPolicy._minimal_candidate; returns the path length */
static int
minimal_path(fabric_t *f, uint64_t *st, int32_t src, int32_t dst,
             int32_t *path)
{
    int n = 0;
    path[n++] = src;
    if (src == dst)
        return n;
    int32_t g1 = src / f->rpg, g2 = dst / f->rpg, gw1, gw2;
    if (g1 == g2)
        return append_tail(f, st, src, dst, path, n);
    if (global_hop(f, st, g1, g2, &gw1, &gw2) < 0)
        return -1;
    if (gw1 != src && (n = append_tail(f, st, src, gw1, path, n)) < 0)
        return -1;
    path[n++] = gw2;
    if (gw2 != dst)
        n = append_tail(f, st, gw2, dst, path, n);
    return n;
}

/* RoutingPolicy._valiant_candidate */
static int
valiant_path(fabric_t *f, uint64_t *st, int32_t src, int32_t dst,
             int32_t *path)
{
    int32_t g1 = src / f->rpg, g2 = dst / f->rpg, gw1, entry;
    if (f->n_groups <= 2 || g1 == g2)
        return minimal_path(f, st, src, dst, path);
    int32_t gi = (int32_t)(sm_next(st) % (uint64_t)f->n_groups);
    while (gi == g1 || gi == g2)
        gi = (int32_t)(sm_next(st) % (uint64_t)f->n_groups);
    if (global_hop(f, st, g1, gi, &gw1, &entry) < 0)
        return -1;
    int n = 0;
    path[n++] = src;
    if (gw1 != src && (n = append_tail(f, st, src, gw1, path, n)) < 0)
        return -1;
    /* head + [entry] + minimal(entry, dst)[1:] */
    int32_t rest[PATH_MAX_HOPS];
    int m = minimal_path(f, st, entry, dst, rest);
    if (m < 0)
        return -1;
    if (n + m > PATH_MAX_HOPS) {
        PyErr_SetString(PyExc_ValueError, "router path too long");
        return -1;
    }
    memcpy(path + n, rest, (size_t)m * sizeof(int32_t));
    return n + m;
}

/* RoutingPolicy._first_hop_queue */
static int64_t
first_hop_queue(KernelObject *k, fabric_t *f, const int32_t *path, int n)
{
    if (n < 2)
        return 0;
    int32_t cnt;
    const int32_t *c = adj_ports(f, path[0], path[1], &cnt);
    port_t *base = f->ports + f->rrow[path[0]].port0;
    int64_t best = 0;
    for (int32_t i = 0; i < cnt; i++) {
        int64_t d = port_depth(f, &base[c[i]], k->now);
        if (i == 0 || d < best)
            best = d;
    }
    return best;
}

/* routing_for(app).select_path(src, dst): Minimal/AdaptiveRouting
 * natively; anything else is one Python call (the mirrors flushed
 * first, the returned router sequence checked hop by hop by
 * accel/dispatch.py so a packet never leaves the port tables). */
static int
select_path(KernelObject *k, fabric_t *f, int32_t app, int32_t src,
            int32_t dst_node, int32_t *path, int *nonmin)
{
    int32_t pi = f->apps[app].policy, dst = f->trow[dst_node].router;
    policy_t *pol = &f->pols[pi < 0 ? f->default_pol : pi];
    *nonmin = 0;
    if (pol->kind == POL_PY) {
        int32_t flat[PATH_MAX_HOPS + 1];
        if (kern_flush(k) < 0)
            return -1;
        k->py_entries++;
        Py_ssize_t len = take_ints(
            PyObject_CallFunction(f->o[O_CHECKED_PATH], "Oii", pol->obj, (int)src,
                                  (int)dst_node), flat, PATH_MAX_HOPS + 1);
        if (len < 2) {
            if (len >= 0)
                PyErr_SetString(PyExc_ValueError, "empty router path");
            return -1;
        }
        *nonmin = flat[0];
        memcpy(path, flat + 1, (size_t)(len - 1) * sizeof(int32_t));
        return (int)len - 1;
    }
    uint64_t *st = &pol->state[src];
    pol->last_src = src;
    mark(f, D_STREAM, (int32_t)(pol - f->pols) * f->n_routers + src,
         &pol->sdirty[src]);
    int n = minimal_path(f, st, src, dst, path);
    if (n < 0 || pol->kind == POL_MIN || src == dst)
        return n;
    int32_t alt[PATH_MAX_HOPS];
    int an = valiant_path(f, st, src, dst, alt);
    if (an <= n)
        return an < 0 ? -1 : n;
    int64_t q_min = first_hop_queue(k, f, path, n);
    int64_t q_non = first_hop_queue(k, f, alt, an);
    if ((double)(q_min * (n - 1)) > (double)(q_non * (an - 1)) + pol->bias) {
        memcpy(path, alt, (size_t)an * sizeof(int32_t));
        *nonmin = 1;
        return an;
    }
    return n;
}

/* ---------------------------------------------------------------- */
/* fabric: the native event handlers                                 */

/* RouterLP's arrival handler */
static int
router_arrival(KernelObject *k, fabric_t *f, int32_t rid, int32_t pi)
{
    double now = k->now;
    router_t *R = &f->routers[rid];
    port_t *ports = f->ports + f->rrow[rid].port0;
    pkt_t *p = &f->pkts[pi];
    if (f->app_on && app_rec(k, f, rid, p->app, now, p->size) < 0)
        return -1;
    int32_t port;
    if (p->hop == p->plen - 1) {
        port = f->trow[p->dst_node].eject_port;
    }
    else {
        int32_t cnt;
        int32_t next = PKT_PATH(p)[p->hop + 1];
        const int32_t *c = adj_ports(f, rid, next, &cnt);
        if (!c) {
            PyErr_Format(PyExc_KeyError, "%d", (int)next);
            return -1;
        }
        port = c[0];
        if (cnt > 1) {
            /* parallel links: min(candidates, key=queue_depth) -- first
             * minimum wins and every probe prunes its port */
            int64_t best = port_depth(f, &ports[port], now);
            for (int32_t i = 1; i < cnt; i++) {
                int64_t d = port_depth(f, &ports[c[i]], now);
                if (d < best) {
                    best = d;
                    port = c[i];
                }
            }
        }
    }
    port_t *pt = &ports[port];
    int32_t idx = (int32_t)(pt - f->ports);
    double start = pt->busy;
    if (start > now) {
        port_prune(f, pt, now);
        if (port_push(pt, start) < 0)
            return -1;
    }
    else {
        start = now;
    }
    double done = start + (double)p->size / f->plink[idx].bw;
    pt->busy = done;
    mark(f, D_PORT, idx, &pt->dirty);
    if (f->load_on)
        link_add(f, f->prow[idx].link, p->size);
    R->forwarded++;
    mark(f, D_ROUTER, rid, &R->dirty);
    p->hop += f->prow[idx].hop_inc;
    return port_send(k, f, idx, done + f->plink[idx].extra, pi);
}

/* TerminalLP._start_next */
static int
start_next(KernelObject *k, fabric_t *f, int32_t node)
{
    term_t *t = &f->terms[node];
    const trow_t *row = &f->trow[node];
    int32_t slot = t->qhead;
    msg_t *h = &f->msgs[slot];
    int64_t size = h->left > f->packet_bytes ? f->packet_bytes : h->left;
    h->left -= size;
    int tail = h->left <= 0;
    if (tail)
        t->qhead = h->next;
    t->head++;
    mark(f, D_TERM, node, &t->dirty);

    int32_t app = h->app, dst_node = h->dst_node;
    int32_t path[PATH_MAX_HOPS];
    int nonmin;
    int n = select_path(k, f, app, row->router, dst_node, path, &nonmin);
    if (n < 0)
        return -1;
    app_t *a = &f->apps[app];
    a->total++;
    mark(f, D_TOTAL, app, &a->dirty_total);
    if (nonmin) {
        a->nonmin++;
        mark(f, D_NONMIN, app, &a->dirty_nonmin);
    }
    int32_t pi = pkt_alloc(f);
    if (pi < 0)
        return -1;
    pkt_t *p = &f->pkts[pi];
    p->size = size;
    p->slot = slot;
    p->app = app;
    p->dst_node = dst_node;
    p->hop = 0;
    if (n > PATH_INLINE
        && !(p->ext = PyMem_Malloc((size_t)n * sizeof(int32_t)))) {
        pkt_free(f, pi);
        PyErr_NoMemory();
        return -1;
    }
    p->plen = (int16_t)n;
    memcpy(PKT_PATH(p), path, (size_t)n * sizeof(int32_t));
    t->pkt_seq++;
    double done = k->now + (double)size / f->terminal_bw;
    t->busy = done;
    mark(f, D_TERM, node, &t->dirty); /* again: select_path may have flushed */
    if (kern_sched(k, done + f->inject_latency, row->router_lp, EV_PKT,
                   PRIO_NETWORK, pi) < 0)
        return -1;
    if (f->load_on)
        link_add(f, row->uplink, size);
    if (tail)
        return kern_sched(k, done, row->lp_id, EV_INJ_DONE, PRIO_NETWORK, slot);
    return 0;
}

/* start the next packet and keep one drain pending while the FIFO is
 * non-empty (TerminalLP._on_drain, and the idle case of inject_message) */
static int
nic_advance(KernelObject *k, fabric_t *f, int32_t node)
{
    term_t *t = &f->terms[node];
    if (start_next(k, f, node) < 0)
        return -1;
    if (t->qhead >= 0)
        return kern_sched(k, t->busy, f->trow[node].lp_id, EV_DRAIN,
                          PRIO_NETWORK, 0);
    return 0;
}

/* A per-message seam of the fabric, seam(msg_id, now), once the
 * message reached `injected` / `delivered`. */
static int
message_seam(KernelObject *k, int32_t slot, int8_t *reached, PyObject *seam)
{
    int64_t msg_id = k->fab->msgs[slot].msg_id;
    *reached = 1;
    kern_msg_release(k->fab, slot);
    k->py_entries++;
    PyObject *r = PyObject_CallFunction(seam, "Ld", (long long)msg_id, k->now);
    Py_XDECREF(r);
    return r ? 0 : -1;
}

static int
dispatch_native(KernelObject *k, const entry_t *e, const lp_t *row)
{
    fabric_t *f = k->fab;
    int32_t ref = (int32_t)e->u.ref;
    if (e->kind >= EV_LOOPBACK)
        return ranks_dispatch(k, e);
    if (e->kind == EV_PORT && (ref = port_pop(k, f, ref)) < 0)
        return -1;
    if (e->kind == EV_DRAIN)
        return nic_advance(k, f, row->index);
    if (e->kind == EV_INJ_DONE)
        return f->msgs[ref].sender >= 0
            ? ranks_injected(k, ref)
            : message_seam(k, ref, &f->msgs[ref].injected, f->o[O_ON_INJECTED]);
    if (row->kind == ROW_ROUTER)
        return router_arrival(k, f, row->index, ref);
    /* TerminalLP._on_pkt -> fabric.on_packet_delivered */
    int32_t slot = f->pkts[ref].slot;
    msg_t *m = &f->msgs[slot];
    m->remaining -= f->pkts[ref].size;
    pkt_free(f, ref);
    if (m->remaining > 0)
        return 0;
    if (m->sender >= 0)
        return ranks_delivered(k, slot);
    return message_seam(k, slot, &m->delivered, f->o[O_ON_DELIVERED]);
}

/* ---------------------------------------------------------------- */
/* per-event dispatch                                                */

static int
dispatch_one(KernelObject *k, entry_t *e)
{
    if (e->dst < 0 || e->dst >= k->n_lps) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    lp_t *row = &k->lps[e->dst];
    if (e->kind != EV_PY)
        return dispatch_native(k, e, row);
    if (row->kind != ROW_PY) {
        /* The only Python-scheduled kind a resident LP takes is the
         * terminal's per-message "loopback"; a hand-made "pkt" would run
         * the Python model against state the kernel owns. */
        PyObject *kind = PyObject_GetAttr(e->u.ev, str_kind);
        int ok = kind && row->kind == ROW_TERMINAL && PyUnicode_Check(kind)
            && PyUnicode_CompareWithASCIIString(kind, "loopback") == 0;
        if (kind && !ok)
            PyErr_Format(PyExc_RuntimeError,
                         "resident fabric LP %d cannot take a "
                         "Python-scheduled %R event", (int)e->dst, kind);
        Py_XDECREF(kind);
        if (!ok)
            return -1;
    }
    if (kern_flush(k) < 0)
        return -1;
    k->py_entries++;
    PyObject *r = PyObject_CallOneArg(row->handle, e->u.ev);
    Py_XDECREF(r);
    return r ? 0 : -1;
}

/* ---------------------------------------------------------------- */
/* kern_flush: write what changed into the Python mirrors            */

static int
call_method(PyObject *o, PyObject *name, PyObject *arg /* stolen, or NULL */)
{
    PyObject *r = arg ? PyObject_CallMethodOneArg(o, name, arg)
                      : PyObject_CallMethodNoArgs(o, name);
    Py_XDECREF(arg);
    Py_XDECREF(r);
    return r ? 0 : -1;
}

/* o.name = v; steals v */
static int
set_attr(PyObject *o, PyObject *name, PyObject *v)
{
    int rc = v ? PyObject_SetAttr(o, name, v) : -1;
    Py_XDECREF(v);
    return rc;
}

/* cur + delta as a new reference (cur NULL: 0) */
PyObject *
kern_plus_delta(PyObject *cur, int64_t delta)
{
    PyObject *d = PyLong_FromLongLong((long long)delta);
    if (!d || !cur)
        return d;
    PyObject *sum = PyNumber_Add(cur, d);
    Py_DECREF(d);
    return sum;
}

/* d[key] = d.get(key, 0) + delta; steals key */
static int
dict_add(PyObject *d, PyObject *key, int64_t delta)
{
    int rc = -1;
    if (key && PyDict_Check(d)) {
        PyObject *cur = PyDict_GetItemWithError(d, key);
        PyObject *sum = (cur || !PyErr_Occurred()) ? kern_plus_delta(cur, delta)
                                                   : NULL;
        if (sum)
            rc = PyDict_SetItem(d, key, sum);
        Py_XDECREF(sum);
    }
    else if (key) {
        PyErr_SetString(PyExc_TypeError, "fabric counter is not a dict");
    }
    Py_XDECREF(key);
    return rc;
}

/* list[i] = v; steals v */
static int
list_set(PyObject *list, Py_ssize_t i, PyObject *v)
{
    return v ? PyList_SetItem(list, i, v) : -1;
}

static int
flush_port(fabric_t *f, int32_t idx)
{
    port_t *p = &f->ports[idx];
    int32_t router = f->prow[idx].router, local = f->prow[idx].local;
    PyObject *busy = PyList_GET_ITEM(f->o[O_BUSY_LISTS], router);
    if (list_set(busy, local, PyFloat_FromDouble(p->busy)) < 0)
        return -1;
    if (p->head == p->synced_head && p->tail == p->synced_tail)
        return 0;
    /* The deque mirrors ring entries [m, synced_tail); Python's own
     * queue_depth() may have pruned more of the front than we have.  A
     * port that never queued holds the empty tuple instead (router.py
     * allocates FIFOs lazily), which reads as an empty deque. */
    PyObject *fifos = PyList_GET_ITEM(f->o[O_PENDING_LISTS], router);
    PyObject *dq = PyList_GetItem(fifos, local);
    Py_ssize_t len = dq ? PyObject_Size(dq) : -1;
    if (len < 0)
        return -1;
    int64_t stop = p->head < p->synced_tail ? p->head : p->synced_tail;
    for (int64_t m = p->synced_tail - len; m < stop; m++)
        if (call_method(dq, str_popleft, NULL) < 0)
            return -1;
    p->synced_head = p->head;
    if (p->synced_tail < p->head)
        p->synced_tail = p->head;
    if (p->synced_tail < p->tail && !PyObject_TypeCheck(dq, deque_type)) {
        dq = PyObject_CallNoArgs((PyObject *)deque_type);
        if (list_set(fifos, local, dq) < 0)
            return -1;
    }
    for (; p->synced_tail < p->tail; p->synced_tail++) {
        double start = p->ring[p->synced_tail & (p->cap - 1)];
        if (call_method(dq, str_append, PyFloat_FromDouble(start)) < 0)
            return -1;
    }
    return 0;
}

/* The inj_queue deque mirrors the NIC FIFO's packets [synced_tail - len,
 * synced_tail) as TerminalLP's (msg_id, app_id, dst_node, size, is_tail)
 * tuples, built here from the message slots.  The cursor names the
 * message of the last tuple appended (cur_slot) and its bytes after that
 * packet (cur_left; -1: none, the next tuple opens the next message).
 * It is used only while that packet is still queued -- otherwise every
 * mirrored packet has left, and the mirror restarts at the FIFO's head. */
static int
flush_nic(fabric_t *f, int32_t node)
{
    term_t *t = &f->terms[node];
    if (t->head == t->synced_head && t->tail == t->synced_tail)
        return 0;
    PyObject *dq = PyList_GET_ITEM(f->o[O_INJ_QUEUES], node);
    Py_ssize_t len = PyObject_Size(dq);
    if (len < 0)
        return -1;
    int64_t stop = t->head < t->synced_tail ? t->head : t->synced_tail;
    for (int64_t m = t->synced_tail - len; m < stop; m++)
        if (call_method(dq, str_popleft, NULL) < 0)
            return -1;
    t->synced_head = t->head;
    if (t->synced_tail <= t->head) {
        t->synced_tail = t->head;
        t->cur_slot = t->qhead;
        t->cur_left = t->qhead >= 0 ? f->msgs[t->qhead].left : -1;
    }
    for (; t->synced_tail < t->tail; t->synced_tail++) {
        int32_t slot = t->cur_left < 0 ? f->msgs[t->cur_slot].next : t->cur_slot;
        const msg_t *m = &f->msgs[slot];
        int64_t left = t->cur_left < 0 ? m->left : t->cur_left;
        int64_t size = left > f->packet_bytes ? f->packet_bytes : left;
        left -= size;
        PyObject *tup = Py_BuildValue("(LLiLO)", (long long)m->msg_id,
                                      (long long)f->apps[m->app].app_id,
                                      (int)m->dst_node, (long long)size,
                                      left <= 0 ? Py_True : Py_False);
        if (!tup || call_method(dq, str_append, tup) < 0)
            return -1;
        t->cur_slot = slot;
        t->cur_left = left > 0 ? left : -1;
    }
    return 0;
}

/* Write one dirty item back.  Every case is idempotent (deltas are
 * zeroed as they are applied, deques are synced against absolute
 * counts), so a flush that failed half way can simply run again. */
static int
flush_one(KernelObject *k, dirty_t d)
{
    fabric_t *f = k->fab;
    int32_t i = d.idx, nr = f->n_routers;
    switch (d.kind) {
    case D_PORT:
        if (flush_port(f, i) < 0)
            return -1;
        f->ports[i].dirty = 0;
        return 0;
    case D_ROUTER:
        if (set_attr(PyList_GET_ITEM(f->o[O_LPS_R], i), str_packets_forwarded,
                     PyLong_FromLongLong((long long)f->routers[i].forwarded)) < 0)
            return -1;
        f->routers[i].dirty = 0;
        return 0;
    case D_LINK: {
        PyObject *cur = PyList_GetItem(f->o[O_LINK_BYTES], i);
        if (!cur || list_set(f->o[O_LINK_BYTES], i,
                             kern_plus_delta(cur, f->link_delta[i])) < 0)
            return -1;
        f->link_delta[i] = 0;
        f->link_dirty[i] = 0;
        return 0;
    }
    case D_CELL: {
        cell_t *c = &f->cells[i];
        PyObject *key = Py_BuildValue("(iL)", (int)(i % nr),
                                      (long long)f->apps[i / nr].app_id);
        PyObject *bins = key ? PyObject_GetItem(f->o[O_APP_BINS], key) : NULL;
        Py_XDECREF(key);
        if (!bins)
            return -1;
        int rc = dict_add(bins, PyLong_FromLongLong((long long)c->bin),
                          c->delta);
        Py_DECREF(bins);
        if (rc == 0)
            c->delta = c->dirty = 0;
        return rc;
    }
    case D_TOTAL:
    case D_NONMIN: {
        app_t *a = &f->apps[i];
        int tot = d.kind == D_TOTAL;
        if (dict_add(tot ? f->o[O_TOTAL_PACKETS] : f->o[O_NONMIN_PACKETS],
                     PyLong_FromLongLong((long long)a->app_id),
                     tot ? a->total : a->nonmin) < 0)
            return -1;
        *(tot ? &a->total : &a->nonmin) = 0;
        *(tot ? &a->dirty_total : &a->dirty_nonmin) = 0;
        return 0;
    }
    case D_TERM: {
        term_t *t = &f->terms[i];
        if (set_attr(PyList_GET_ITEM(f->o[O_LPS_T], i), str_busy_until,
                     PyFloat_FromDouble(t->busy)) < 0
            || list_set(f->o[O_PKT_SEQ], i,
                        PyLong_FromLongLong((long long)t->pkt_seq)) < 0
            || flush_nic(f, i) < 0)
            return -1;
        t->dirty = 0;
        return 0;
    }
    case D_RANK:
    case D_MPI:
        return ranks_flush_one(k, d);
    default: { /* D_STREAM */
        policy_t *pol = &f->pols[i / nr];
        int32_t r = i % nr;
        PyObject *sm = PyList_GetItem(pol->streams, r);
        if (!sm || set_attr(sm, str_state,
                            PyLong_FromUnsignedLongLong(pol->state[r])) < 0)
            return -1;
        /* leave policy.rng/_draw bound to the source it last served */
        if (r == pol->last_src
            && call_method(pol->obj, str_bind_source, PyLong_FromLong(r)) < 0)
            return -1;
        pol->sdirty[r] = 0;
        return 0;
    }
    }
}

int
kern_flush(KernelObject *k)
{
    fabric_t *f = k->fab;
    if (!f || !f->n_dirty)
        return 0;
    k->flushes++;
    for (Py_ssize_t i = 0; i < f->n_dirty; i++) {
        if (flush_one(k, f->dirty[i]) < 0) {
            /* keep what is still to do, this item included */
            f->n_dirty -= i;
            memmove(f->dirty, f->dirty + i, (size_t)f->n_dirty * sizeof(dirty_t));
            return -1;
        }
        k->sync_ops++;
    }
    f->n_dirty = 0;
    return 0;
}

/* ---------------------------------------------------------------- */
/* adoption and the Python -> kernel seams                           */

static void
fabric_free(fabric_t *f)
{
    if (!f)
        return;
    for (int32_t i = 0; i < f->n_ports; i++) {
        PyMem_Free(f->ports[i].ring);
        PyMem_Free(f->ports[i].fifo);
    }
    for (int32_t i = 0; i < f->n_pkts; i++)
        if (f->pkts[i].plen > PATH_INLINE)
            PyMem_Free(f->pkts[i].ext);
    for (int32_t i = 0; i < f->n_msgs; i++)
        Py_CLEAR(f->msgs[i].sobj);
    for (int32_t i = 0; i < f->n_pols; i++) {
        PyMem_Free(f->pols[i].state);
        PyMem_Free(f->pols[i].sdirty);
        Py_XDECREF(f->pols[i].obj);
        Py_XDECREF(f->pols[i].streams);
    }
    void *blocks[] = {
        f->rrow, f->prow, f->plink, f->trow, f->routers, f->ports, f->terms,
        f->adj, f->cand, f->link_delta,
        f->link_dirty, f->msgs, f->pkts, f->apps, f->cells, f->pols, f->gw,
        f->gp, f->tails_at, f->tails, f->dirty,
    };
    for (size_t i = 0; i < sizeof(blocks) / sizeof(blocks[0]); i++)
        PyMem_Free(blocks[i]);
    Py_XDECREF(f->objs);
    PyMem_Free(f);
}

static void *
dup_buffer(const Py_buffer *b)
{
    void *p = PyMem_Malloc(b->len ? (size_t)b->len : 1);
    if (p)
        memcpy(p, b->buf, (size_t)b->len);
    else
        PyErr_NoMemory();
    return p;
}

/* adopt(scalars, rrows, prows, plinks, trows, adj, cand, gw, gp, objs):
 * take over a freshly built NetworkFabric.  accel/dispatch.py documents
 * the row and range-checks every index in it; sizes are re-checked
 * here. */
static PyObject *
Kernel_adopt(KernelObject *self, PyObject *args)
{
    enum { B_RROW, B_PROW, B_PLINK, B_TROW, B_ADJ, B_CAND, B_GW, B_GP, N_BUF };
    static const size_t copied_to[N_BUF] = {
        offsetof(fabric_t, rrow), offsetof(fabric_t, prow),
        offsetof(fabric_t, plink), offsetof(fabric_t, trow),
        offsetof(fabric_t, adj), offsetof(fabric_t, cand),
        offsetof(fabric_t, gw), offsetof(fabric_t, gp),
    };
    Py_buffer b[N_BUF] = {{0}};
    long long packet_bytes;
    fabric_t *f = PyMem_Calloc(1, sizeof(fabric_t));
    if (!f)
        return PyErr_NoMemory();
    f->free_msg = f->free_pkt = f->default_pol = -1;
    if (!PyArg_ParseTuple(
            args, "(iLiidddp)y*y*y*y*y*y*y*y*O!:adopt", &f->n_links,
            &packet_bytes, &f->n_groups, &f->rpg, &f->terminal_bw,
            &f->inject_latency, &f->window, &f->load_on, &b[0], &b[1], &b[2],
            &b[3], &b[4], &b[5], &b[6], &b[7], &PyTuple_Type, &f->objs)) {
        PyMem_Free(f);
        return NULL;
    }
    Py_INCREF(f->objs);
    f->packet_bytes = packet_bytes;
    f->app_on = f->window > 0.0;

    Py_ssize_t nr = b[B_RROW].len / sizeof(rrow_t) - 1;
    Py_ssize_t np = b[B_PROW].len / sizeof(prow_t);
    Py_ssize_t nn = b[B_TROW].len / sizeof(trow_t);
    Py_ssize_t na = b[B_ADJ].len / 8 - 1, ng = f->n_groups;
    Py_ssize_t ngw = b[B_GW].len / 4, ngp = b[B_GP].len / 4;
    const rrow_t *closing = (const rrow_t *)b[B_RROW].buf + nr;
    const int32_t *adj = b[B_ADJ].buf, *gw = b[B_GW].buf, *gp = b[B_GP].buf;
    const Py_ssize_t list_len[] = {nr, nr, nr, nn, nn, f->n_links, nn};
    int ok = !self->fab && PyTuple_GET_SIZE(f->objs) == N_OBJS && nr >= 1
        && nn >= 1 && na >= 0 && f->n_links >= 1 && packet_bytes >= 1
        && ng >= 0 && b[B_RROW].len == (nr + 1) * (Py_ssize_t)sizeof(rrow_t)
        && b[B_PROW].len == np * (Py_ssize_t)sizeof(prow_t)
        && b[B_PLINK].len == np * (Py_ssize_t)sizeof(plink_t)
        && b[B_TROW].len == nn * (Py_ssize_t)sizeof(trow_t)
        && b[B_ADJ].len == (na + 1) * 8 && b[B_CAND].len % 4 == 0
        && closing->port0 == np && closing->adj0 == na
        && adj[2 * na + 1] == b[B_CAND].len / 4
        && (!ng || (f->rpg >= 1 && ng * f->rpg == nr && ngw > ng * ng
                    && gw[ng * ng] == ngw && ngp > nr * ng
                    && gp[nr * ng] == ngp));
    for (int i = 0; ok && i < N_OBJS; i++) {
        PyObject *o = f->o[i] = PyTuple_GET_ITEM(f->objs, i);
        if (i <= O_PKT_SEQ)
            ok = PyList_Check(o) && PyList_GET_SIZE(o) == list_len[i];
        else if (i <= O_NONMIN_PACKETS)
            ok = PyDict_Check(o);
    }
    if (!ok) {
        PyErr_SetString(PyExc_ValueError,
                        "inconsistent fabric row, or a fabric is resident");
        goto fail;
    }
    f->n_routers = (int32_t)nr;
    f->n_nodes = (int32_t)nn;
    f->routers = PyMem_Calloc((size_t)nr, sizeof(router_t));
    f->ports = PyMem_Calloc((size_t)(np ? np : 1), sizeof(port_t));
    f->terms = PyMem_Calloc((size_t)nn, sizeof(term_t));
    f->link_delta = PyMem_Calloc((size_t)f->n_links, sizeof(int64_t));
    f->link_dirty = PyMem_Calloc((size_t)f->n_links, 1);
    f->tails_at = PyMem_Calloc((size_t)nr * (ng ? f->rpg : 0) + 1, 4);
    if (!f->routers || !f->ports || !f->terms || !f->link_delta
        || !f->link_dirty || !f->tails_at) {
        PyErr_NoMemory();
        goto fail;
    }
    f->n_ports = (int32_t)np;
    for (int i = 0; i < N_BUF; i++)
        if (!(*(void **)((char *)f + copied_to[i]) = dup_buffer(&b[i])))
            goto fail;
    if (kern_dirty_reserve(f) < 0)
        goto fail;
    for (Py_ssize_t n = 0; n < nn; n++)
        f->terms[n].qhead = f->terms[n].qtail = -1;
    /* turn the LPs' rows into fabric rows: from here nothing fails */
    for (Py_ssize_t i = 0; i < nr + nn; i++) {
        int32_t lp = i < nr ? f->rrow[i].lp_id : f->trow[i - nr].lp_id;
        if (lp < 0 || lp >= self->n_lps || self->lps[lp].kind != ROW_PY) {
            while (i-- > 0)
                self->lps[i < nr ? f->rrow[i].lp_id
                                 : f->trow[i - nr].lp_id].kind = ROW_PY;
            PyErr_SetString(PyExc_ValueError,
                            "fabric LP is not a registered Python row");
            goto fail;
        }
        self->lps[lp].kind = i < nr ? ROW_ROUTER : ROW_TERMINAL;
        self->lps[lp].index = (int32_t)(i < nr ? i : i - nr);
    }
    self->fab = f;
    f = NULL;
fail:
    for (int i = 0; i < N_BUF; i++)
        PyBuffer_Release(&b[i]);
    if (f) {
        fabric_free(f);
        return NULL;
    }
    Py_RETURN_NONE;
}

static fabric_t *
need_fabric(KernelObject *self)
{
    if (!self->fab)
        PyErr_SetString(PyExc_RuntimeError, "kernel hosts no resident fabric");
    return self->fab;
}

/* Queue the message in `slot`, filled in by the caller, on node src's
 * NIC: TerminalLP.inject_message. */
int
kern_inject(KernelObject *k, int32_t slot, int32_t src)
{
    fabric_t *f = k->fab;
    term_t *t = &f->terms[src];
    int64_t size = f->msgs[slot].size;
    int drain_pending = t->qhead >= 0;
    if (drain_pending)
        f->msgs[t->qtail].next = slot;
    else
        t->qhead = slot;
    t->qtail = slot;
    /* a zero-byte message is one empty packet */
    t->tail += size > 0 ? 1 + (size - 1) / f->packet_bytes : 1;
    mark(f, D_TERM, src, &t->dirty);
    if (drain_pending)
        return 0;
    if (k->now >= t->busy)
        return nic_advance(k, f, src);
    return kern_sched(k, t->busy, f->trow[src].lp_id, EV_DRAIN, PRIO_NETWORK,
                      0);
}

/* inject(msg_id, app_id, src_node, dst_node, size):
 * TerminalLP.inject_message, from NetworkFabric.send_message. */
static PyObject *
Kernel_inject(KernelObject *self, PyObject *args)
{
    long long msg_id, app_id, size;
    long src, dst;
    fabric_t *f = need_fabric(self);
    if (!f || !PyArg_ParseTuple(args, "LLllL:inject", &msg_id, &app_id, &src,
                                &dst, &size))
        return NULL;
    if (src < 0 || src >= f->n_nodes || dst < 0 || dst >= f->n_nodes
        || size < 0) {
        PyErr_SetString(PyExc_ValueError, "inject: node or size out of range");
        return NULL;
    }
    int32_t app = kern_app_slot(f, app_id), slot = app < 0 ? -1 : kern_msg_alloc(f);
    if (slot < 0)
        return NULL;
    msg_t *m = &f->msgs[slot];
    m->msg_id = msg_id;
    m->size = m->remaining = m->left = size;
    m->app = app;
    m->dst_node = (int32_t)dst;
    m->injected = m->delivered = 0;
    m->next = -1;
    m->sender = -1; /* Python sent it: its seams call Python */
    if (kern_inject(self, slot, (int32_t)src) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Kernel_flush(KernelObject *self, PyObject *Py_UNUSED(ignored))
{
    if (kern_flush(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* set_port_bw(router, port, bw): RouterLP.scale_port_bandwidth /
 * restore_port write through */
static PyObject *
Kernel_set_port_bw(KernelObject *self, PyObject *args)
{
    long router, port;
    double bw;
    fabric_t *f = need_fabric(self);
    if (!f || !PyArg_ParseTuple(args, "lld:set_port_bw", &router, &port, &bw))
        return NULL;
    if (router < 0 || router >= f->n_routers || port < 0
        || port >= f->rrow[router + 1].port0 - f->rrow[router].port0) {
        PyErr_SetString(PyExc_IndexError, "no such router port");
        return NULL;
    }
    if (!(bw > 0)) {   /* the port FIFOs rely on done never decreasing */
        PyErr_Format(PyExc_ValueError,
                     "port bandwidth must be positive, got %R",
                     PyTuple_GET_ITEM(args, 2));
        return NULL;
    }
    f->plink[f->rrow[router].port0 + port].bw = bw;
    Py_RETURN_NONE;
}

/* set_policy(app_id | None, kind, policy, streams, states, bias):
 * install the fabric-wide policy (None) or one app's override.
 * kind 0/1 = Minimal/AdaptiveRouting run natively on `streams` (the
 * policy's per-router SplitMix objects, their states in the array('Q')
 * `states`); 2 = ask policy.select_path (streams None, states empty). */
static PyObject *
Kernel_set_policy(KernelObject *self, PyObject *args)
{
    PyObject *app_obj, *obj, *streams;
    Py_buffer states;
    int kind, ok = 0;
    double bias;
    fabric_t *f = need_fabric(self);
    if (!f || !PyArg_ParseTuple(args, "OiOOy*d:set_policy", &app_obj, &kind,
                                &obj, &streams, &states, &bias))
        return NULL;
    int32_t nr = f->n_routers, app = -1;
    int native = kind == POL_MIN || kind == POL_ADP;
    if ((!native && kind != POL_PY)
        || (native && (!f->n_groups || !PyList_Check(streams)
                       || PyList_GET_SIZE(streams) != nr
                       || states.len != (Py_ssize_t)nr * 8))) {
        PyErr_SetString(PyExc_ValueError, "malformed routing policy row");
        goto done;
    }
    /* the policy being replaced hands its stream states back first */
    if (kern_flush(self) < 0)
        goto done;
    if (app_obj != Py_None) {
        long long app_id = PyLong_AsLongLong(app_obj);
        if ((app_id == -1 && PyErr_Occurred())
            || (app = kern_app_slot(f, app_id)) < 0)
            goto done;
    }
    policy_t *pol = PyMem_Realloc(f->pols,
                                  (size_t)(f->n_pols + 1) * sizeof(policy_t));
    if (!pol) {
        PyErr_NoMemory();
        goto done;
    }
    f->pols = pol;
    pol += f->n_pols;
    memset(pol, 0, sizeof(*pol));
    pol->kind = kind;
    pol->bias = bias;
    pol->last_src = -1;
    if (native) {
        pol->state = dup_buffer(&states);
        pol->sdirty = PyMem_Calloc((size_t)nr, 1);
    }
    f->n_pols++; /* counted by kern_dirty_reserve */
    if ((native && (!pol->state || !pol->sdirty)) || kern_dirty_reserve(f) < 0) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        PyMem_Free(pol->state);
        PyMem_Free(pol->sdirty);
        f->n_pols--;
        goto done;
    }
    Py_INCREF(obj);
    pol->obj = obj;
    Py_INCREF(streams);
    pol->streams = streams;
    if (app < 0)
        f->default_pol = f->n_pols - 1;
    else
        f->apps[app].policy = f->n_pols - 1;
    ok = 1;
done:
    PyBuffer_Release(&states);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

/* ---------------------------------------------------------------- */
/* the commit loop                                                   */

static inline void
entry_done(entry_t *e)
{
    if (e->kind == EV_PY)
        Py_DECREF(e->u.ev);
}

/* SequentialEngine.run, and ConservativeEngine.run + commit_window:
 * the sequential engine is the one-window case (its window never
 * ends; comparisons against NAN are false). */
static PyObject *
run_loop(KernelObject *k, double until, long long budget)
{
    long long committed = 0;
    int budget_hit = (budget == 0);
    int fail = 0;

    while (k->len && !budget_hit && !fail) {
        double floor = k->heap[0].time;
        if (floor > until)
            break;
        double window_end = k->conservative ? floor + k->lookahead : NAN;
        k->windows_executed += k->conservative;
        long long wcommitted = 0;
        while (k->len) {
            double t = k->heap[0].time;
            if (t >= window_end || t > until)
                break;
            entry_t e;
            heap_pop(k, &e);
            k->now = t;
            k->origin = e.dst;
            if (e.dst >= 0 && e.dst < k->n_lps)
                k->current_partition = k->lps[e.dst].part;
            int rc = dispatch_one(k, &e);
            entry_done(&e);
            if (rc < 0) {
                fail = 1;
                break;
            }
            k->per_part[k->current_partition]++;
            wcommitted++;
            if (committed + wcommitted == budget) {
                budget_hit = 1;
                break;
            }
        }
        /* the finally clauses of commit_window / SequentialEngine.run:
         * both count what committed before a handler raised */
        k->current_partition = -1;
        k->origin = -1;
        committed += wcommitted;
        if (fail)
            break;
        if (wcommitted > k->max_window_events)
            k->max_window_events = wcommitted;
    }
    k->events_processed += committed;
    if (fail)
        return NULL;
    if (!budget_hit && k->now < until && until < Py_HUGE_VAL)
        k->now = until;
    return Py_BuildValue("(Li)", committed, budget_hit);
}

/* ---------------------------------------------------------------- */
/* Kernel methods                                                    */

static PyObject *
Kernel_run(KernelObject *self, PyObject *args)
{
    double until;
    long long budget;
    if (!PyArg_ParseTuple(args, "dL:run", &until, &budget))
        return NULL;
    PyObject *res = run_loop(self, until, budget);
    /* Python regains control: the mirrors must be current, also (and
     * especially) when a handler raised. */
    PyObject *et, *ev, *tb;
    PyErr_Fetch(&et, &ev, &tb);
    int rc = kern_flush(self);
    if (et) {
        PyErr_Clear();
        PyErr_Restore(et, ev, tb);
    }
    else if (rc < 0) {
        Py_CLEAR(res);
    }
    return res;
}

/* push_event(ev, time, dst, priority): schedule_fast's enqueue half --
 * assign seq to the already-built Event (sent now) and push it.
 * Mirrors Engine.schedule_fast + the engine's _push (including the
 * conservative lookahead check) exactly. */
static PyObject *
Kernel_push_event(KernelObject *self, PyObject *args)
{
    PyObject *ev;
    double time, send_time = self->now;
    int dst;
    short prio;
    if (!PyArg_ParseTuple(args, "Odih:push_event", &ev, &time, &dst, &prio))
        return NULL;

    long slot = self->origin + 1;
    int64_t c = self->counters[slot];
    self->counters[slot] = c + 1;
    int64_t seq = ((int64_t)slot << SEQ_ORIGIN_SHIFT) | c;
    if (set_attr(ev, str_seq, PyLong_FromLongLong((long long)seq)) < 0)
        return NULL;

    if (self->conservative) {
        if (dst < 0 || dst >= self->n_lps) {
            /* ConservativeEngine._push indexes _part_of_lp[ev.dst] */
            PyErr_SetString(PyExc_IndexError, "list index out of range");
            return NULL;
        }
        if (self->current_partition >= 0
            && self->lps[dst].part != self->current_partition
            && time < send_time + self->lookahead) {
            PyObject *what = PyObject_Repr(ev);
            if (what)
                raise_lookahead(self, what, time, send_time);
            Py_XDECREF(what);
            return NULL;
        }
    }

    entry_t e;
    e.time = time;
    e.seq = seq;
    e.dst = dst;
    e.prio = prio;
    e.kind = EV_PY;
    e.u.ev = ev;
    Py_INCREF(ev);
    if (heap_push(self, &e) < 0) {
        Py_DECREF(ev);
        return NULL;
    }
    Py_RETURN_NONE;
}

/* add_lp(partition, handle): one generic Python row per registered LP */
static PyObject *
Kernel_add_lp(KernelObject *self, PyObject *args)
{
    long partition;
    PyObject *handle;
    if (!PyArg_ParseTuple(args, "lO:add_lp", &partition, &handle))
        return NULL;
    if (self->conservative
        && (partition < 0 || partition >= self->n_partitions)) {
        return PyErr_Format(PyExc_ValueError,
                            "partition %ld outside [0, %ld)", partition,
                            self->n_partitions);
    }
    if (self->n_lps == self->cap_lps) {
        Py_ssize_t cap = self->cap_lps * 2;
        int64_t *c = PyMem_Realloc(self->counters,
                                   (size_t)(cap + 1) * sizeof(int64_t));
        if (c)
            self->counters = c;
        lp_t *l = PyMem_Realloc(self->lps, (size_t)cap * sizeof(lp_t));
        if (l)
            self->lps = l;
        if (!c || !l)
            return PyErr_NoMemory();
        self->cap_lps = cap;
    }
    lp_t *row = &self->lps[self->n_lps++];
    Py_INCREF(handle);
    row->handle = handle;
    row->part = self->conservative ? (int32_t)partition : 0;
    row->index = -1;
    row->kind = ROW_PY;
    self->counters[self->n_lps] = 0;
    Py_RETURN_NONE;
}

static PyObject *
Kernel_empty(KernelObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyBool_FromLong(self->len == 0);
}

static PyObject *
Kernel_peek_time(KernelObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyFloat_FromDouble(self->len ? self->heap[0].time : Py_HUGE_VAL);
}

static PyObject *
Kernel_committed_by_partition(KernelObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyList_New(self->n_partitions);
    for (long p = 0; out && p < self->n_partitions; p++) {
        PyObject *v = PyLong_FromLongLong((long long)self->per_part[p]);
        if (!v)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, p, v);
    }
    return out;
}

/* ---------------------------------------------------------------- */
/* lifecycle                                                         */

static int
Kernel_init(KernelObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n_partitions", "lookahead", NULL};
    long n_partitions;
    double lookahead;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "ld:Kernel", kwlist,
                                     &n_partitions, &lookahead))
        return -1;
    if (n_partitions < 0 || (n_partitions > 0 && !(lookahead > 0.0))
        || self->counters) {
        PyErr_SetString(PyExc_ValueError,
                        "Kernel(n_partitions >= 0, lookahead > 0), once");
        return -1;
    }
    self->conservative = n_partitions > 0;
    self->lookahead = lookahead;
    self->n_partitions = n_partitions;
    self->origin = -1;
    self->current_partition = -1;
    self->cap_lps = 8;
    self->counters = PyMem_Calloc((size_t)self->cap_lps + 1, sizeof(int64_t));
    self->lps = PyMem_Calloc((size_t)self->cap_lps, sizeof(lp_t));
    self->per_part = PyMem_Calloc((size_t)(n_partitions ? n_partitions : 1),
                                  sizeof(int64_t));
    if (!self->counters || !self->lps || !self->per_part) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

static int
Kernel_traverse(KernelObject *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->len; i++)
        if (self->heap[i].kind == EV_PY)
            Py_VISIT(self->heap[i].u.ev);
    for (Py_ssize_t i = 0; i < self->n_lps; i++)
        Py_VISIT(self->lps[i].handle);
    if (self->fab) {
        Py_VISIT(self->fab->objs);
        for (int32_t i = 0; i < self->fab->n_pols; i++) {
            Py_VISIT(self->fab->pols[i].obj);
            Py_VISIT(self->fab->pols[i].streams);
        }
        for (int32_t i = 0; i < self->fab->n_msgs; i++)
            Py_VISIT(self->fab->msgs[i].sobj);
    }
    return ranks_traverse(self, visit, arg);
}

static int
Kernel_clear(KernelObject *self)
{
    for (Py_ssize_t i = 0; i < self->len; i++)
        entry_done(&self->heap[i]);
    self->len = 0;
    for (Py_ssize_t i = 0; i < self->n_lps; i++)
        Py_CLEAR(self->lps[i].handle);
    self->n_lps = 0;
    ranks_free(self);
    fabric_free(self->fab);
    self->fab = NULL;
    return 0;
}

static void
Kernel_dealloc(KernelObject *self)
{
    PyObject_GC_UnTrack(self);
    Kernel_clear(self);
    PyMem_Free(self->heap);
    PyMem_Free(self->counters);
    PyMem_Free(self->lps);
    PyMem_Free(self->per_part);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* ---------------------------------------------------------------- */
/* type + module tables                                              */

static PyMethodDef Kernel_methods[] = {
    {"run", (PyCFunction)Kernel_run, METH_VARARGS,
     "run(until, budget) -> (committed, budget_hit)"},
    {"push_event", (PyCFunction)Kernel_push_event, METH_VARARGS,
     "push_event(ev, time, dst, priority): assign seq, push on the heap"},
    {"add_lp", (PyCFunction)Kernel_add_lp, METH_VARARGS,
     "add_lp(partition, handle): register the next LP's Python row"},
    {"adopt", (PyCFunction)Kernel_adopt, METH_VARARGS,
     "adopt(*row): make a NetworkFabric resident (see accel/dispatch.py)"},
    {"inject", (PyCFunction)Kernel_inject, METH_VARARGS,
     "inject(msg_id, app_id, src_node, dst_node, size)"},
    {"flush", (PyCFunction)Kernel_flush, METH_NOARGS,
     "write the resident fabric's changed state into its Python mirrors"},
    {"adopt_ranks", (PyCFunction)Kernel_adopt_ranks, METH_VARARGS,
     "adopt_ranks(types, fabric, msg_seq, finish, terminal_latency): run "
     "SimMPI's ranks here (see accel/dispatch.py)"},
    {"add_job", (PyCFunction)Kernel_add_job, METH_VARARGS,
     "add_job(app_id, name, [(rank_state, node, driver_lp, stats), ...]) "
     "-> the slot of its rank 0"},
    {"begin_rank", (PyCFunction)Kernel_begin_rank, METH_VARARGS,
     "begin_rank(slot, generator): run a rank until it first blocks"},
    {"set_port_bw", (PyCFunction)Kernel_set_port_bw, METH_VARARGS,
     "set_port_bw(router, port, bw)"},
    {"set_policy", (PyCFunction)Kernel_set_policy, METH_VARARGS,
     "set_policy(app_id | None, kind, policy, streams | None, bias)"},
    {"empty", (PyCFunction)Kernel_empty, METH_NOARGS, NULL},
    {"peek_time", (PyCFunction)Kernel_peek_time, METH_NOARGS, NULL},
    {"committed_by_partition", (PyCFunction)Kernel_committed_by_partition,
     METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef Kernel_members[] = {
    {"now", T_DOUBLE, offsetof(KernelObject, now), 0, NULL},
    {"current_partition", T_LONG, offsetof(KernelObject, current_partition),
     0, NULL},
    {"events_processed", T_LONGLONG, offsetof(KernelObject, events_processed),
     READONLY, NULL},
    {"heap_peak", T_PYSSIZET, offsetof(KernelObject, heap_peak), READONLY,
     "the most entries the event heap has held at once"},
    {"windows_executed", T_LONGLONG, offsetof(KernelObject, windows_executed),
     READONLY, NULL},
    {"max_window_events", T_LONGLONG,
     offsetof(KernelObject, max_window_events), READONLY, NULL},
    {"sync_ops", T_LONGLONG, offsetof(KernelObject, sync_ops), READONLY,
     "mirror writes performed by flushes so far"},
    {"flushes", T_LONGLONG, offsetof(KernelObject, flushes), READONLY,
     "flushes so far that found something to write"},
    {"mpi_in_flight", T_LONGLONG, offsetof(KernelObject, mpi_in_flight),
     READONLY, "messages resident ranks sent that are not delivered yet"},
    {NULL, 0, 0, 0, NULL},
};

static PyObject *
Kernel_get_py_entries(KernelObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->py_entries
                               + (self->fab ? self->fab->py_calls : 0));
}

static PyGetSetDef Kernel_getset[] = {
    {"py_entries", (getter)Kernel_get_py_entries, NULL,
     "calls into Python so far: generator resumes, rank finishes, "
     "per-message seams, generic handlers and policy/table callbacks",
     NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_union_accel.Kernel",
    .tp_basicsize = sizeof(KernelObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled event heap, commit loop, resident fabric and ranks",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Kernel_init,
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_traverse = (traverseproc)Kernel_traverse,
    .tp_clear = (inquiry)Kernel_clear,
    .tp_methods = Kernel_methods,
    .tp_members = Kernel_members,
    .tp_getset = Kernel_getset,
};

/* splitmix(seed, stream_id, n): the first n draws of the kernel's
 * SplitMix(seed, stream_id) -- what the parity tests hold against
 * repro.pdes.rng.SplitMix. */
static PyObject *
accel_splitmix(PyObject *Py_UNUSED(mod), PyObject *args)
{
    PyObject *seed, *stream;
    Py_ssize_t n;
    if (!PyArg_ParseTuple(args, "O!O!n:splitmix", &PyLong_Type, &seed,
                          &PyLong_Type, &stream, &n))
        return NULL;
    uint64_t state = PyLong_AsUnsignedLongLongMask(seed) * 0x2545F4914F6CDD1DULL
        + PyLong_AsUnsignedLongLongMask(stream) * SM_GOLDEN + 1;
    PyObject *out = PyList_New(n < 0 ? 0 : n);
    for (Py_ssize_t i = 0; out && i < n; i++) {
        PyObject *v = PyLong_FromUnsignedLongLong(sm_next(&state));
        if (!v)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, v);
    }
    return out;
}

static PyMethodDef accel_functions[] = {
    {"splitmix", accel_splitmix, METH_VARARGS,
     "splitmix(seed, stream_id, n) -> list of n draws"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef accel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_union_accel",
    .m_doc = "Compiled event kernel for the repro PDES engines.",
    .m_size = -1,
    .m_methods = accel_functions,
};

PyMODINIT_FUNC
PyInit__union_accel(void)
{
    static const struct {
        PyObject **var;
        const char *s;
    } names[] = {
        {&str_seq, "seq"}, {&str_kind, "kind"}, {&str_state, "state"},
        {&str_popleft, "popleft"}, {&str_append, "append"},
        {&str_packets_forwarded, "packets_forwarded"},
        {&str_busy_until, "busy_until"}, {&str_bind_source, "_bind_source"},
    };
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++)
        if (!(*names[i].var = PyUnicode_InternFromString(names[i].s)))
            return NULL;
    if (ranks_init() < 0)
        return NULL;
    PyObject *collections = PyImport_ImportModule("collections");
    if (!collections)
        return NULL;
    deque_type = (PyTypeObject *)PyObject_GetAttrString(collections, "deque");
    Py_DECREF(collections);
    if (!deque_type)
        return NULL;

    PyObject *m = PyType_Ready(&KernelType) < 0 ? NULL
                                                : PyModule_Create(&accel_module);
    if (!m)
        return NULL;
    Py_INCREF(&KernelType);
    if (PyModule_AddObject(m, "Kernel", (PyObject *)&KernelType) < 0) {
        Py_DECREF(&KernelType);
        Py_DECREF(m);
        return NULL;
    }
    if (PyModule_AddIntConstant(m, "SEQ_ORIGIN_SHIFT", SEQ_ORIGIN_SHIFT) < 0
        || PyModule_AddIntConstant(m, "ABI_VERSION", ABI_VERSION) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
