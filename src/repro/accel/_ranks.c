/* _ranks.c: resident ranks -- SimMPI's progress engine in the kernel.
 *
 * repro/mpi/engine.py is the reference; this is its executor, operation
 * for operation, for the ranks of a SimMPI whose engine adopted them
 * (accel/dispatch.py, adopt_ranks).  The kernel owns, per rank:
 *
 *   - the posted-receive and unexpected queues, matched in posting /
 *     arrival order with ANY_SOURCE / ANY_TAG (-1) exactly as
 *     SimMPI._on_delivery and _match_unexpected match them;
 *   - request completion on injection (sends) and on delivery
 *     (receives): a rank's messages are native (msg_t.sender >= 0), so
 *     they cross no Python seam; Request and Message objects exist only
 *     for the requests a program holds;
 *   - Wait / Waitall pending counts, block_start and comm_time;
 *   - Compute / Sleep wakeups: native EV_WAKE entries addressed to the
 *     rank's partition driver LP, drawing seq from the same counters, so
 *     partition and (time, priority, seq) are those of Python's "wake";
 *   - the Collective op: its recorded schedule (repro/mpi/collectives.py)
 *     run step by step, its requests plain flags;
 *   - the RankStats counters (msgs_sent, msgs_recvd, bytes_sent,
 *     comm_time, compute_time), written back at the fabric's coherence
 *     points (they are D_RANK items of its dirty list) and before the
 *     rank's own resume; latencies are appended to the live list.
 *
 * Python is entered to resume a generator (PyIter_Send, at the true
 * `now`), when a rank finishes (SimMPI._finish_rank), and for generic
 * LPs -- a rank begins from its driver's Python "rank_start" handler.
 *
 * Any call that may run Python can also grow the rank table, so rank_t
 * pointers are re-fetched after one; slots (indices) are stable.
 */

#include "_kernel.h"

#include <string.h>

/* schedule steps: repro.mpi.collectives */
enum { OP_ISEND = 0, OP_IRECV, OP_WAIT, OP_WAITALL };

/* R_RUNNING covers SimMPI's "not blocked": running, or descheduled by a
 * Compute until its wakeup. */
enum { R_NEW = 0, R_RUNNING, R_BLOCKED, R_DONE };

/* RankStats fields behind the kernel's counters */
enum { S_SENT = 1, S_RECVD = 2, S_COMM = 4, S_COMPUTE = 8 };

/* a schedule request's flags (C_SEEN / C_DUP: validation scratch) */
enum { C_DONE = 1, C_WAITED = 2, C_SEEN = 4, C_DUP = 8 };

/* the types adopt_ranks takes, in this order */
enum { T_ISEND, T_IRECV, T_WAIT, T_WAITALL, T_COMPUTE, T_SLEEP, T_COLLECTIVE,
       T_REQUEST, T_MESSAGE, N_TYPES };

typedef struct {
    int64_t tag;          /* ANY_TAG (-1) or a tag                  */
    int32_t src;          /* ANY_SOURCE (-1) or a rank of the job   */
    int32_t creq;         /* the schedule request, or -1: obj       */
    PyObject *obj;        /* the program's Request (owned)          */
    int32_t next;
} recv_t;

typedef struct {
    int64_t tag, nbytes;
    double sent_at, arrived_at;
    int32_t src, next;
} umsg_t;

typedef struct {
    PyObject *name;       /* the job's name (owned)                 */
    int32_t first, n;     /* its ranks: slots first .. first + n-1  */
    int32_t app;          /* its fabric app slot                    */
} job_t;

typedef struct {
    PyObject *rs, *stats, *lat, *gen; /* owned; gen from begin_rank  */
    PyObject *group;      /* the Waitall list blocked on, or NULL   */
    int64_t msgs_sent, msgs_recvd, bytes_sent;
    double comm_time, compute_time, block_start;
    int64_t *code;        /* the running collective's words         */
    int64_t tag_base;
    uint8_t *creq;        /* its requests' C_* flags                */
    int32_t n_code, cap_code, pc, n_issued, cap_creq;
    int32_t job, rank, node, driver_lp;
    int32_t pending;      /* requests the blocked rank waits for    */
    int32_t post_head, post_tail, unex_head, unex_tail; /* -1: empty */
    int8_t state, stale, listed;
} rank_t;

struct ranks_s {
    rank_t *ranks;
    job_t *jobs;
    recv_t *recvs;
    umsg_t *umsgs;
    int32_t n_ranks, cap_ranks, n_jobs, cap_jobs;
    int32_t n_recvs, cap_recvs, free_recv, n_umsgs, cap_umsgs, free_umsg;
    PyObject *types[N_TYPES], *fabric, *msg_seq, *finish; /* owned */
    double terminal_latency;
    int64_t d_sent, d_bytes, d_delivered; /* fabric totals to write back */
    int8_t totals_listed;
};

static PyObject *s_dst, *s_src, *s_nbytes, *s_tag, *s_request, *s_requests,
    *s_seconds, *s_schedule, *s_code, *s_tag_base, *s_complete, *s_result,
    *s_waiter, *s_slot, *s_kind, *s_rank, *s_peer, *s_posted_at, *s_sent_at,
    *s_arrived_at, *s_msgs_sent, *s_msgs_recvd, *s_bytes_sent, *s_comm_time,
    *s_compute_time, *s_latencies, *s_messages_sent, *s_messages_delivered,
    *s_send, *s_recv;

int
ranks_init(void)
{
    static const struct {
        PyObject **var;
        const char *s;
    } names[] = {
        {&s_dst, "dst"}, {&s_src, "src"}, {&s_nbytes, "nbytes"},
        {&s_tag, "tag"}, {&s_request, "request"}, {&s_requests, "requests"},
        {&s_seconds, "seconds"}, {&s_schedule, "schedule"}, {&s_code, "code"},
        {&s_tag_base, "tag_base"}, {&s_complete, "complete"},
        {&s_result, "result"}, {&s_waiter, "waiter"}, {&s_slot, "slot"},
        {&s_kind, "kind"}, {&s_rank, "rank"}, {&s_peer, "peer"},
        {&s_posted_at, "posted_at"}, {&s_sent_at, "sent_at"},
        {&s_arrived_at, "arrived_at"}, {&s_msgs_sent, "msgs_sent"},
        {&s_msgs_recvd, "msgs_recvd"}, {&s_bytes_sent, "bytes_sent"},
        {&s_comm_time, "comm_time"}, {&s_compute_time, "compute_time"},
        {&s_latencies, "latencies"}, {&s_messages_sent, "messages_sent"},
        {&s_messages_delivered, "messages_delivered"}, {&s_send, "send"},
        {&s_recv, "recv"},
    };
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++)
        if (!(*names[i].var = PyUnicode_InternFromString(names[i].s)))
            return -1;
    return 0;
}

/* ---------------------------------------------------------------- */
/* small helpers                                                     */

static int advance(KernelObject *k, int32_t idx, PyObject *value);

/* o.name = v; steals v */
static int
set_attr(PyObject *o, PyObject *name, PyObject *v)
{
    int rc = v ? PyObject_SetAttr(o, name, v) : -1;
    Py_XDECREF(v);
    return rc;
}

/* int(o.name) */
static int
get_ll(PyObject *o, PyObject *name, long long *out)
{
    PyObject *v = PyObject_GetAttr(o, name);
    if (!v)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* float(o.name) */
static int
get_double(PyObject *o, PyObject *name, double *out)
{
    PyObject *v = PyObject_GetAttr(o, name);
    if (!v)
        return -1;
    *out = PyFloat_AsDouble(v);
    Py_DECREF(v);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* A new instance of the slotted type rk->types[t] with names[i] = vals[i]
 * (stolen), made without running its __init__. */
static PyObject *
new_slotted(ranks_t *rk, int t, PyObject *const *names, PyObject **vals,
            int n)
{
    PyTypeObject *tp = (PyTypeObject *)rk->types[t];
    PyObject *o = NULL, *empty = NULL;
    int ok = 1;
    for (int i = 0; i < n; i++)
        ok &= vals[i] != NULL;
    if (ok && (empty = PyTuple_New(0)))
        o = tp->tp_new(tp, empty, NULL);
    Py_XDECREF(empty);
    for (int i = 0; o && i < n; i++)
        if (PyObject_SetAttr(o, names[i], vals[i]) < 0)
            Py_CLEAR(o);
    for (int i = 0; i < n; i++)
        Py_XDECREF(vals[i]);
    return o;
}

/* Request(kind, rank, nbytes, peer, tag, now) */
static PyObject *
new_request(KernelObject *k, int32_t idx, PyObject *kind, PyObject *nbytes,
            PyObject *peer, PyObject *tag)
{
    PyObject *n[9] = {
        s_kind, s_complete, s_result, s_rank, s_nbytes, s_peer, s_tag,
        s_posted_at, s_waiter,
    };
    PyObject *v[9] = {
        Py_NewRef(kind), Py_NewRef(Py_False), Py_NewRef(Py_None),
        PyLong_FromLong(k->rk->ranks[idx].rank), Py_NewRef(nbytes),
        Py_NewRef(peer), Py_NewRef(tag), PyFloat_FromDouble(k->now),
        Py_NewRef(Py_None),
    };
    return new_slotted(k->rk, T_REQUEST, n, v, 9);
}

/* Message(src, tag, nbytes, sent_at, arrived_at) */
static PyObject *
new_message(ranks_t *rk, int32_t src, int64_t tag, int64_t nbytes,
            double sent_at, double arrived_at)
{
    PyObject *n[5] = {s_src, s_tag, s_nbytes, s_sent_at, s_arrived_at};
    PyObject *v[5] = {
        PyLong_FromLong(src), PyLong_FromLongLong((long long)tag),
        PyLong_FromLongLong((long long)nbytes), PyFloat_FromDouble(sent_at),
        PyFloat_FromDouble(arrived_at),
    };
    return new_slotted(rk, T_MESSAGE, n, v, 5);
}

/* RankStats <- the kernel's counters, for the fields that moved */
static int
sync_stats(rank_t *r)
{
    PyObject *st = r->stats;
    int s = r->stale;
    if ((s & S_SENT)
        && (set_attr(st, s_msgs_sent, PyLong_FromLongLong(r->msgs_sent)) < 0
            || set_attr(st, s_bytes_sent,
                        PyLong_FromLongLong(r->bytes_sent)) < 0))
        return -1;
    if ((s & S_RECVD)
        && set_attr(st, s_msgs_recvd, PyLong_FromLongLong(r->msgs_recvd)) < 0)
        return -1;
    if ((s & S_COMM)
        && set_attr(st, s_comm_time, PyFloat_FromDouble(r->comm_time)) < 0)
        return -1;
    if ((s & S_COMPUTE)
        && set_attr(st, s_compute_time, PyFloat_FromDouble(r->compute_time)) < 0)
        return -1;
    r->stale = 0;
    return 0;
}

static inline void
touch(KernelObject *k, int32_t idx, int bits)
{
    rank_t *r = &k->rk->ranks[idx];
    r->stale |= bits;
    mark(k->fab, D_RANK, idx, &r->listed);
}

static inline void
touch_totals(KernelObject *k)
{
    mark(k->fab, D_MPI, 0, &k->rk->totals_listed);
}

int
ranks_flush_one(KernelObject *k, dirty_t d)
{
    ranks_t *rk = k->rk;
    if (!rk)
        return 0;
    if (d.kind == D_RANK) {
        rank_t *r = &rk->ranks[d.idx];
        if (sync_stats(r) < 0)
            return -1;
        r->listed = 0;
        return 0;
    }
    /* D_MPI: NetworkFabric.messages_sent / bytes_sent / messages_delivered */
    struct {
        PyObject *name;
        int64_t *delta;
    } totals[] = {
        {s_messages_sent, &rk->d_sent}, {s_bytes_sent, &rk->d_bytes},
        {s_messages_delivered, &rk->d_delivered},
    };
    for (int i = 0; i < 3; i++) {
        if (!*totals[i].delta)
            continue;
        PyObject *cur = PyObject_GetAttr(rk->fabric, totals[i].name);
        PyObject *sum = cur ? kern_plus_delta(cur, *totals[i].delta) : NULL;
        Py_XDECREF(cur);
        if (set_attr(rk->fabric, totals[i].name, sum) < 0)
            return -1;
        *totals[i].delta = 0;
    }
    rk->totals_listed = 0;
    return 0;
}

/* ---------------------------------------------------------------- */
/* matching queues                                                   */

static int
post(ranks_t *rk, int32_t idx, int64_t src, int64_t tag, PyObject *req,
     int32_t q)
{
    int32_t i = rk->free_recv;
    if (i >= 0)
        rk->free_recv = rk->recvs[i].next;
    else if (kern_grow(&rk->recvs, rk->n_recvs, &rk->cap_recvs,
                       sizeof(recv_t)) < 0)
        return -1;
    else
        i = rk->n_recvs++;
    recv_t *e = &rk->recvs[i];
    e->src = (int32_t)src;
    e->tag = tag;
    e->creq = q;
    e->obj = Py_XNewRef(req);
    e->next = -1;
    rank_t *r = &rk->ranks[idx];
    if (r->post_tail >= 0)
        rk->recvs[r->post_tail].next = i;
    else
        r->post_head = i;
    r->post_tail = i;
    return 0;
}

/* SimMPI._match_unexpected: unlink the first unexpected message that
 * (src, tag) matches; its index, or -1 */
static int32_t
take_unexpected(ranks_t *rk, rank_t *r, int64_t src, int64_t tag)
{
    int32_t prev = -1;
    for (int32_t i = r->unex_head; i >= 0; prev = i, i = rk->umsgs[i].next) {
        umsg_t *u = &rk->umsgs[i];
        if ((src == -1 || u->src == src) && (tag == -1 || u->tag == tag)) {
            if (prev >= 0)
                rk->umsgs[prev].next = u->next;
            else
                r->unex_head = u->next;
            if (r->unex_tail == i)
                r->unex_tail = prev;
            return i;
        }
    }
    return -1;
}

static void
umsg_free(ranks_t *rk, int32_t i)
{
    rk->umsgs[i].next = rk->free_umsg;
    rk->free_umsg = i;
}

static int
append_unexpected(ranks_t *rk, int32_t idx, int32_t src, int64_t tag,
                  int64_t nbytes, double sent_at, double arrived_at)
{
    int32_t i = rk->free_umsg;
    if (i >= 0)
        rk->free_umsg = rk->umsgs[i].next;
    else if (kern_grow(&rk->umsgs, rk->n_umsgs, &rk->cap_umsgs,
                       sizeof(umsg_t)) < 0)
        return -1;
    else
        i = rk->n_umsgs++;
    umsg_t *u = &rk->umsgs[i];
    u->src = src;
    u->tag = tag;
    u->nbytes = nbytes;
    u->sent_at = sent_at;
    u->arrived_at = arrived_at;
    u->next = -1;
    rank_t *r = &rk->ranks[idx];
    if (r->unex_tail >= 0)
        rk->umsgs[r->unex_tail].next = i;
    else
        r->unex_head = i;
    r->unex_tail = i;
    return 0;
}

/* ---------------------------------------------------------------- */
/* blocking and completion                                           */

static inline void
block(KernelObject *k, rank_t *r)
{
    r->state = R_BLOCKED;
    r->block_start = k->now;
}

/* SimMPI._unblock; steals value (NULL: None) */
static int
unblock(KernelObject *k, int32_t idx, PyObject *value)
{
    rank_t *r = &k->rk->ranks[idx];
    r->state = R_RUNNING;
    r->comm_time += k->now - r->block_start;
    touch(k, idx, S_COMM);
    return advance(k, idx, value);
}

/* [r.result for r in group] */
static PyObject *
results_of(PyObject *group)
{
    PyObject *seq = PySequence_Fast(group, "Waitall.requests is not a sequence");
    if (!seq)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    PyObject *out = PyList_New(n);
    for (Py_ssize_t i = 0; out && i < n; i++) {
        PyObject *v = PyObject_GetAttr(PySequence_Fast_GET_ITEM(seq, i), s_result);
        if (!v)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, v);
    }
    Py_DECREF(seq);
    return out;
}

/* SimMPI._complete_request for a program's Request owned by rank
 * `owner` (the rank that waits for it is req.waiter, as in Python). */
static int
complete_obj(KernelObject *k, int32_t owner, PyObject *req, PyObject *result)
{
    ranks_t *rk = k->rk;
    if (PyObject_SetAttr(req, s_complete, Py_True) < 0
        || PyObject_SetAttr(req, s_result, result) < 0)
        return -1;
    PyObject *w = PyObject_GetAttr(req, s_waiter);
    if (!w)
        return -1;
    int32_t idx = owner;
    if (w != Py_None && w != rk->ranks[owner].rs) {
        long long slot;
        if (get_ll(w, s_slot, &slot) < 0) {
            Py_DECREF(w);
            return -1;
        }
        if (slot < 0 || slot >= rk->n_ranks) {
            Py_DECREF(w);
            PyErr_SetString(PyExc_ValueError,
                            "a request is waited for by a rank that is not "
                            "resident");
            return -1;
        }
        idx = (int32_t)slot;
    }
    int none = w == Py_None;
    Py_DECREF(w);
    rank_t *r = &rk->ranks[idx];
    if (none || r->state != R_BLOCKED)
        return 0;
    if (PyObject_SetAttr(req, s_waiter, Py_None) < 0)
        return -1;
    if (--r->pending > 0)
        return 0;
    PyObject *value;
    if (r->group) {
        value = results_of(r->group);
        Py_CLEAR(r->group);
        if (!value)
            return -1;
    }
    else {
        value = Py_NewRef(result);
    }
    return unblock(k, idx, value);
}

/* ... and for request q of the rank's running schedule */
static int
complete_creq(KernelObject *k, int32_t idx, int32_t q)
{
    rank_t *r = &k->rk->ranks[idx];
    uint8_t *f = &r->creq[q];
    *f |= C_DONE;
    if (!(*f & C_WAITED) || r->state != R_BLOCKED)
        return 0;
    *f &= ~C_WAITED;
    if (--r->pending > 0)
        return 0;
    return unblock(k, idx, NULL);
}

static int
complete_send(KernelObject *k, int32_t sender, PyObject *sobj, int32_t sreq)
{
    return sobj ? complete_obj(k, sender, sobj, Py_None)
                : complete_creq(k, sender, sreq);
}

/* SimMPI._on_delivery, after the fabric's accounting */
static int
deliver(KernelObject *k, int32_t idx, int32_t src, int64_t tag,
        int64_t nbytes, double posted_at)
{
    ranks_t *rk = k->rk;
    rank_t *r = &rk->ranks[idx];
    r->msgs_recvd++;
    touch(k, idx, S_RECVD);
    PyObject *lat = PyFloat_FromDouble(k->now - posted_at);
    int rc = lat ? PyList_Append(r->lat, lat) : -1;
    Py_XDECREF(lat);
    if (rc < 0)
        return -1;
    int32_t prev = -1;
    for (int32_t i = r->post_head; i >= 0; prev = i, i = rk->recvs[i].next) {
        recv_t *e = &rk->recvs[i];
        if ((e->src != -1 && e->src != src) || (e->tag != -1 && e->tag != tag))
            continue;
        if (prev >= 0)
            rk->recvs[prev].next = e->next;
        else
            r->post_head = e->next;
        if (r->post_tail == i)
            r->post_tail = prev;
        int32_t q = e->creq;
        PyObject *req = e->obj;
        e->obj = NULL;
        e->next = rk->free_recv;
        rk->free_recv = i;
        if (!req)
            return complete_creq(k, idx, q);
        PyObject *msg = new_message(rk, src, tag, nbytes, posted_at, k->now);
        rc = msg ? complete_obj(k, idx, req, msg) : -1;
        Py_XDECREF(msg);
        Py_DECREF(req);
        return rc;
    }
    return append_unexpected(rk, idx, src, tag, nbytes, posted_at, k->now);
}

/* What a delivered or injected message carried; takes its Request. */
typedef struct {
    int32_t sender, receiver, sreq;
    PyObject *sobj;
    int64_t tag, size;
    double posted_at;
} meta_t;

static meta_t
take_meta(fabric_t *f, int32_t slot)
{
    msg_t *m = &f->msgs[slot];
    meta_t mt = {m->sender, m->receiver, m->sreq, m->sobj, m->tag, m->size,
                 m->posted_at};
    m->sobj = NULL;
    return mt;
}

static int
delivered(KernelObject *k, const meta_t *mt)
{
    ranks_t *rk = k->rk;
    rk->d_delivered++;
    k->mpi_in_flight--;
    touch_totals(k);
    return deliver(k, mt->receiver, rk->ranks[mt->sender].rank, mt->tag,
                   mt->size, mt->posted_at);
}

/* NetworkFabric.on_message_injected -> SimMPI._on_injected */
int
ranks_injected(KernelObject *k, int32_t slot)
{
    fabric_t *f = k->fab;
    meta_t mt = take_meta(f, slot);
    f->msgs[slot].injected = 1;
    kern_msg_release(f, slot);
    int rc = complete_send(k, mt.sender, mt.sobj, mt.sreq);
    Py_XDECREF(mt.sobj);
    return rc;
}

/* the last byte arrived: NetworkFabric._complete -> SimMPI._on_delivery */
int
ranks_delivered(KernelObject *k, int32_t slot)
{
    fabric_t *f = k->fab;
    meta_t mt = take_meta(f, slot); /* (a delivered send was injected) */
    f->msgs[slot].delivered = 1;
    kern_msg_release(f, slot);
    Py_XDECREF(mt.sobj);
    return delivered(k, &mt);
}

/* NetworkFabric.on_loopback: the send completes, then the delivery */
static int
loopback(KernelObject *k, int32_t slot)
{
    fabric_t *f = k->fab;
    meta_t mt = take_meta(f, slot);
    f->msgs[slot].injected = f->msgs[slot].delivered = 1;
    kern_msg_release(f, slot);
    int rc = complete_send(k, mt.sender, mt.sobj, mt.sreq);
    Py_XDECREF(mt.sobj);
    return rc < 0 ? -1 : delivered(k, &mt);
}

/* ---------------------------------------------------------------- */
/* sends and receives                                                */

/* SimMPI._isend's accounting and NetworkFabric.send_message: a native
 * message from rank idx to rank dst of its job; the send completes
 * `req` (the program's Request) or schedule request q. */
static int
send_native(KernelObject *k, int32_t idx, int64_t dst, int64_t nbytes,
            int64_t tag, PyObject *req, int32_t q)
{
    ranks_t *rk = k->rk;
    fabric_t *f = k->fab;
    rank_t *r = &rk->ranks[idx];
    const job_t *j = &rk->jobs[r->job];
    if (dst < 0 || dst >= j->n) {
        PyErr_Format(PyExc_ValueError, "rank %d of %R sends to invalid rank %lld",
                     (int)r->rank, j->name, (long long)dst);
        return -1;
    }
    r->msgs_sent++;
    r->bytes_sent += nbytes;
    touch(k, idx, S_SENT);
    if (nbytes < 0) {
        PyErr_Format(PyExc_ValueError, "message size must be >= 0, got %lld",
                     (long long)nbytes);
        return -1;
    }
    int32_t src_node = r->node, receiver = j->first + (int32_t)dst;
    int32_t dst_node = rk->ranks[receiver].node;
    /* msg_id = ((src_node + 1) << 32) | fabric._msg_seq[src_node]++ */
    PyObject *cur = PyList_GetItem(rk->msg_seq, src_node);
    long long c = cur ? PyLong_AsLongLong(cur) : -1;
    if (c == -1 && PyErr_Occurred())
        return -1;
    if (PyList_SetItem(rk->msg_seq, src_node, PyLong_FromLongLong(c + 1)) < 0)
        return -1;
    int32_t slot = kern_msg_alloc(f);
    if (slot < 0)
        return -1;
    rk->d_sent++;
    rk->d_bytes += nbytes;
    k->mpi_in_flight++;
    touch_totals(k);
    msg_t *m = &f->msgs[slot];
    m->msg_id = ((int64_t)(src_node + 1) << 32) | c;
    m->size = m->remaining = m->left = nbytes;
    m->app = j->app;
    m->dst_node = dst_node;
    m->injected = m->delivered = 0;
    m->next = -1;
    m->sender = idx;
    m->receiver = receiver;
    m->sreq = q;
    m->sobj = Py_XNewRef(req);
    m->tag = tag;
    m->posted_at = k->now;
    if (src_node != dst_node)
        return kern_inject(k, slot, src_node);
    /* a self-send: a local copy at terminal bandwidth plus one terminal
     * latency, bypassing the network */
    double delay = (double)nbytes / f->terminal_bw + rk->terminal_latency;
    return kern_sched(k, k->now + delay, f->trow[dst_node].lp_id, EV_LOOPBACK,
                      PRIO_NETWORK, slot);
}

/* SimMPI._irecv: post a receive completing `req` (the program's Request)
 * or schedule request q, unless an unexpected message matches already. */
static int
recv_native(KernelObject *k, int32_t idx, int64_t src, int64_t tag,
            PyObject *req, int32_t q)
{
    ranks_t *rk = k->rk;
    rank_t *r = &rk->ranks[idx];
    const job_t *j = &rk->jobs[r->job];
    if (src != -1 && (src < 0 || src >= j->n)) {
        PyErr_Format(PyExc_ValueError,
                     "rank %d of %R receives from invalid rank %lld",
                     (int)r->rank, j->name, (long long)src);
        return -1;
    }
    int32_t u = take_unexpected(rk, r, src, tag);
    if (u < 0)
        return post(rk, idx, src, tag, req, q);
    umsg_t m = rk->umsgs[u];
    umsg_free(rk, u);
    if (!req) {
        r->creq[q] |= C_DONE;
        return 0;
    }
    PyObject *msg = new_message(rk, m.src, m.tag, m.nbytes, m.sent_at,
                                m.arrived_at);
    if (!msg || PyObject_SetAttr(req, s_complete, Py_True) < 0
        || PyObject_SetAttr(req, s_result, msg) < 0) {
        Py_XDECREF(msg);
        return -1;
    }
    Py_DECREF(msg);
    return 0;
}

/* ---------------------------------------------------------------- */
/* the ops a program yields                                          */

/* Each op handler returns 1 when the rank blocked (or is descheduled),
 * 0 with *value the new reference to send back (NULL: None), -1 on an
 * error. */

static int
op_isend(KernelObject *k, int32_t idx, PyObject *op, PyObject **value)
{
    PyObject *dst = PyObject_GetAttr(op, s_dst);
    PyObject *nbytes = dst ? PyObject_GetAttr(op, s_nbytes) : NULL;
    PyObject *tag = nbytes ? PyObject_GetAttr(op, s_tag) : NULL;
    PyObject *req = NULL;
    if (tag) {
        long long d = PyLong_AsLongLong(dst), n = PyLong_AsLongLong(nbytes);
        long long t = PyLong_AsLongLong(tag);
        if (!PyErr_Occurred()
            && (req = new_request(k, idx, s_send, nbytes, dst, tag))
            && send_native(k, idx, d, n, t, req, -1) < 0)
            Py_CLEAR(req);
    }
    Py_XDECREF(dst);
    Py_XDECREF(nbytes);
    Py_XDECREF(tag);
    *value = req;
    return req ? 0 : -1;
}

static int
op_irecv(KernelObject *k, int32_t idx, PyObject *op, PyObject **value)
{
    PyObject *src = PyObject_GetAttr(op, s_src);
    PyObject *nbytes = src ? PyObject_GetAttr(op, s_nbytes) : NULL;
    PyObject *tag = nbytes ? PyObject_GetAttr(op, s_tag) : NULL;
    PyObject *req = NULL;
    int some = nbytes ? PyObject_IsTrue(nbytes) : -1; /* op.nbytes or 0 */
    if (tag && some >= 0) {
        long long s = PyLong_AsLongLong(src), t = PyLong_AsLongLong(tag);
        PyObject *zero = some ? NULL : PyLong_FromLong(0);
        if (!PyErr_Occurred()
            && (req = new_request(k, idx, s_recv, some ? nbytes : zero, src,
                                  tag))
            && recv_native(k, idx, s, t, req, -1) < 0)
            Py_CLEAR(req);
        Py_XDECREF(zero);
    }
    Py_XDECREF(src);
    Py_XDECREF(nbytes);
    Py_XDECREF(tag);
    *value = req;
    return req ? 0 : -1;
}

/* SimMPI._wait */
static int
op_wait(KernelObject *k, int32_t idx, PyObject *op, PyObject **value)
{
    PyObject *req = PyObject_GetAttr(op, s_request);
    PyObject *c = req ? PyObject_GetAttr(req, s_complete) : NULL;
    int done = c ? PyObject_IsTrue(c) : -1;
    Py_XDECREF(c);
    int rc = -1;
    if (done > 0) {
        *value = PyObject_GetAttr(req, s_result);
        rc = *value ? 0 : -1;
    }
    else if (done == 0
             && PyObject_SetAttr(req, s_waiter, k->rk->ranks[idx].rs) == 0) {
        rank_t *r = &k->rk->ranks[idx];
        Py_CLEAR(r->group);
        r->pending = 1;
        block(k, r);
        rc = 1;
    }
    Py_XDECREF(req);
    return rc;
}

/* SimMPI._waitall */
static int
op_waitall(KernelObject *k, int32_t idx, PyObject *op, PyObject **value)
{
    PyObject *reqs = PyObject_GetAttr(op, s_requests);
    PyObject *seq = reqs ? PySequence_Fast(reqs, "Waitall.requests is not a "
                                                 "sequence") : NULL;
    int rc = -1;
    if (!seq)
        goto done;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    int32_t pending = 0;
    for (int pass = 0; pass < 2; pass++) {
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *req = PySequence_Fast_GET_ITEM(seq, i);
            PyObject *c = PyObject_GetAttr(req, s_complete);
            int is_done = c ? PyObject_IsTrue(c) : -1;
            Py_XDECREF(c);
            if (is_done < 0)
                goto done;
            if (is_done)
                continue;
            if (!pass)
                pending++;
            else if (PyObject_SetAttr(req, s_waiter,
                                      k->rk->ranks[idx].rs) < 0)
                goto done;
        }
        if (!pending) {
            *value = results_of(seq);
            rc = *value ? 0 : -1;
            goto done;
        }
    }
    rank_t *r = &k->rk->ranks[idx];
    Py_XSETREF(r->group, Py_NewRef(reqs));
    r->pending = pending;
    block(k, r);
    rc = 1;
done:
    Py_XDECREF(seq);
    Py_XDECREF(reqs);
    return rc;
}

/* SimMPI._op_compute: a native wakeup at the rank's driver LP */
static int
op_compute(KernelObject *k, int32_t idx, PyObject *op)
{
    double seconds;
    if (get_double(op, s_seconds, &seconds) < 0)
        return -1;
    rank_t *r = &k->rk->ranks[idx];
    r->compute_time += seconds;
    touch(k, idx, S_COMPUTE);
    double time = k->now + seconds;
    if (time < k->now) {
        PyObject *t = PyFloat_FromDouble(time), *now = PyFloat_FromDouble(k->now);
        if (t && now)
            PyErr_Format(PyExc_ValueError,
                         "cannot schedule into the past: t=%R < now=%R", t, now);
        Py_XDECREF(t);
        Py_XDECREF(now);
        return -1;
    }
    if (kern_sched(k, time, r->driver_lp, EV_WAKE, PRIO_WAKEUP, idx) < 0)
        return -1;
    r->state = R_RUNNING; /* not comm-blocked; just descheduled */
    return 1;
}

/* ---------------------------------------------------------------- */
/* collectives: a recorded schedule, step by step                    */

/* Issue the running schedule's steps until one blocks (1) or the
 * schedule ends (0); SimMPI._run_collective. */
static int
coll_run(KernelObject *k, int32_t idx)
{
    for (;;) {
        rank_t *r = &k->rk->ranks[idx];
        if (r->pc >= r->n_code) {
            r->n_code = 0;
            return 0;
        }
        const int64_t *w = r->code + r->pc;
        int32_t q;
        switch (w[0]) {
        case OP_ISEND: {
            int64_t peer = w[1], nbytes = w[2], tag = r->tag_base + w[3];
            q = r->n_issued++;
            r->pc += 4;
            if (send_native(k, idx, peer, nbytes, tag, NULL, q) < 0)
                return -1;
            break;
        }
        case OP_IRECV: {
            int64_t peer = w[1], tag = r->tag_base + w[2];
            q = r->n_issued++;
            r->pc += 3;
            if (recv_native(k, idx, peer, tag, NULL, q) < 0)
                return -1;
            break;
        }
        case OP_WAIT:
            q = (int32_t)w[1];
            r->pc += 2;
            if (!(r->creq[q] & C_DONE)) {
                r->creq[q] |= C_WAITED;
                r->pending = 1;
                block(k, r);
                return 1;
            }
            break;
        default: { /* OP_WAITALL */
            int32_t n = (int32_t)w[1], pending = 0;
            r->pc += 2 + n;
            for (int32_t i = 0; i < n; i++) {
                uint8_t *f = &r->creq[w[2 + i]];
                if (!(*f & C_DONE)) {
                    *f |= C_WAITED;
                    pending++;
                }
            }
            if (pending) {
                r->pending = pending;
                block(k, r);
                return 1;
            }
        }
        }
    }
}

/* The requests a schedule issues, or -1: unknown steps, truncated words,
 * a wait for a request not issued yet, a request waited for twice in
 * one WAITALL or never waited for (collectives.record checks the same).
 * Leaves the rank's creq flags zeroed for them. */
static int32_t
check_code(rank_t *r)
{
    const int64_t *w = r->code;
    int32_t n = r->n_code, issued = 0;
    for (int pass = 0; pass < 2; pass++) {
        int32_t seen = 0;
        for (int32_t pc = 0; pc < n;) {
            int64_t m = 0, left = n - pc;
            switch (w[pc]) {
            case OP_ISEND:
            case OP_IRECV:
                m = w[pc] == OP_ISEND ? 4 : 3;
                if (left < m)
                    return -1;
                seen++;
                pc += (int32_t)m;
                continue;
            case OP_WAIT:
                if (left < 2)
                    return -1;
                m = 1;
                break;
            case OP_WAITALL:
                if (left < 2 || w[pc + 1] < 0 || w[pc + 1] > left - 2)
                    return -1;
                m = w[pc + 1];
                pc++;
                break;
            default:
                return -1;
            }
            for (int64_t i = 1; pass && i <= m; i++) {
                int64_t q = w[pc + i];
                if (q < 0 || q >= seen || (r->creq[q] & C_DUP))
                    return -1;
                r->creq[q] |= C_SEEN | C_DUP;
            }
            for (int64_t i = 1; pass && i <= m; i++)
                r->creq[w[pc + i]] &= ~C_DUP;
            pc += (int32_t)m + 1;
        }
        if (!pass) {
            issued = seen;
            if (issued > r->cap_creq) {
                uint8_t *c = PyMem_Realloc(r->creq, (size_t)issued);
                if (!c) {
                    PyErr_NoMemory();
                    return -2;
                }
                r->creq = c;
                r->cap_creq = issued;
            }
            if (issued)
                memset(r->creq, 0, (size_t)issued);
        }
    }
    for (int32_t q = 0; q < issued; q++)
        if (!(r->creq[q] & C_SEEN))
            return -1;
    if (issued)
        memset(r->creq, 0, (size_t)issued);
    return issued;
}

/* SimMPI._op_collective: copy the schedule, check it, run it */
static int
op_collective(KernelObject *k, int32_t idx, PyObject *op)
{
    long long base;
    PyObject *sched = PyObject_GetAttr(op, s_schedule);
    PyObject *code = sched ? PyObject_GetAttr(sched, s_code) : NULL;
    Py_XDECREF(sched);
    if (!code)
        return -1;
    Py_buffer view;
    int rc = PyObject_GetBuffer(code, &view, PyBUF_FORMAT);
    Py_DECREF(code);
    if (rc < 0)
        return -1;
    rank_t *r = &k->rk->ranks[idx];
    int64_t words = view.len / 8;
    rc = -1;
    if (view.itemsize != 8 || !view.format
        || (view.format[0] != 'q' && view.format[0] != 'l')
        || words > INT32_MAX) {
        PyErr_SetString(PyExc_TypeError,
                        "a collective schedule's code is an array('q')");
        goto done;
    }
    if (words > r->cap_code) {
        int64_t *c = PyMem_Realloc(r->code, (size_t)words * 8);
        if (!c) {
            PyErr_NoMemory();
            goto done;
        }
        r->code = c;
        r->cap_code = (int32_t)words;
    }
    if (words)
        memcpy(r->code, view.buf, (size_t)words * 8);
    r->n_code = (int32_t)words;
    int32_t issued = check_code(r);
    if (issued < 0) {
        r->n_code = 0;
        if (issued == -1)
            PyErr_SetString(PyExc_ValueError, "malformed collective schedule");
        goto done;
    }
    if (get_ll(op, s_tag_base, &base) < 0) {
        r = &k->rk->ranks[idx];
        r->n_code = 0;
        goto done;
    }
    r = &k->rk->ranks[idx];
    r->tag_base = base;
    r->pc = r->n_issued = 0;
    rc = 0;
done:
    PyBuffer_Release(&view);
    return rc < 0 ? -1 : coll_run(k, idx);
}

static int
dispatch_op(KernelObject *k, int32_t idx, PyObject *op, PyObject **value)
{
    PyObject **types = k->rk->types;
    int which = -1;
    for (int t = 0; t <= T_COLLECTIVE && which < 0; t++)
        if (Py_TYPE(op) == (PyTypeObject *)types[t])
            which = t;
    /* op subclasses: SimMPI._dispatch's isinstance chain, in its order */
    for (int t = 0; t <= T_COLLECTIVE && which < 0; t++)
        if (t != T_SLEEP && PyObject_TypeCheck(op, (PyTypeObject *)types[t]))
            which = t;
    *value = NULL;
    switch (which) {
    case T_ISEND:
        return op_isend(k, idx, op, value);
    case T_IRECV:
        return op_irecv(k, idx, op, value);
    case T_WAIT:
        return op_wait(k, idx, op, value);
    case T_WAITALL:
        return op_waitall(k, idx, op, value);
    case T_COMPUTE:
    case T_SLEEP:
        return op_compute(k, idx, op);
    case T_COLLECTIVE:
        return op_collective(k, idx, op);
    }
    PyErr_Format(PyExc_TypeError, "rank program yielded unsupported object %R",
                 op);
    return -1;
}

/* ---------------------------------------------------------------- */
/* resuming a rank                                                   */

/* SimMPI._finish_rank, once its RankStats are current */
static int
finish(KernelObject *k, int32_t idx)
{
    rank_t *r = &k->rk->ranks[idx];
    r->state = R_DONE;
    Py_CLEAR(r->gen);
    if (r->stale && sync_stats(r) < 0)
        return -1;
    PyObject *rs = Py_NewRef(r->rs);
    k->py_entries++;
    PyObject *res = PyObject_CallOneArg(k->rk->finish, rs);
    Py_DECREF(rs);
    Py_XDECREF(res);
    return res ? 0 : -1;
}

/* SimMPI._advance: continue the running collective, then send `value`
 * (stolen; NULL: None) into the generator until an op blocks the rank
 * or the generator returns. */
static int
advance(KernelObject *k, int32_t idx, PyObject *value)
{
    if (k->rk->ranks[idx].n_code) {
        int rc = coll_run(k, idx);
        if (rc) {
            Py_XDECREF(value);
            return rc < 0 ? -1 : 0;
        }
    }
    for (;;) {
        rank_t *r = &k->rk->ranks[idx];
        if (!r->gen || (r->stale && sync_stats(r) < 0)) {
            if (!r->gen)
                PyErr_SetString(PyExc_RuntimeError,
                                "resident rank resumed before it began or "
                                "after it finished");
            Py_XDECREF(value);
            return -1;
        }
        PyObject *gen = Py_NewRef(r->gen), *op = NULL;
        k->py_entries++;
        PySendResult res = PyIter_Send(gen, value ? value : Py_None, &op);
        Py_DECREF(gen);
        Py_XDECREF(value);
        value = NULL;
        if (res == PYGEN_ERROR)
            return -1;
        if (res == PYGEN_RETURN) {
            Py_XDECREF(op);
            return finish(k, idx);
        }
        int rc = dispatch_op(k, idx, op, &value);
        Py_DECREF(op);
        if (rc)
            return rc < 0 ? -1 : 0;
    }
}

int
ranks_dispatch(KernelObject *k, const entry_t *e)
{
    if (!k->rk) {
        PyErr_SetString(PyExc_RuntimeError, "kernel hosts no resident ranks");
        return -1;
    }
    if (e->kind == EV_WAKE) /* SimMPI._on_wake */
        return advance(k, (int32_t)e->u.ref, NULL);
    return loopback(k, (int32_t)e->u.ref);
}

/* ---------------------------------------------------------------- */
/* the Python side: adoption, jobs, rank starts                      */

static ranks_t *
need_ranks(KernelObject *k)
{
    if (!k->rk)
        PyErr_SetString(PyExc_RuntimeError, "kernel hosts no resident ranks");
    return k->rk;
}

/* adopt_ranks(types, fabric, msg_seq, finish, terminal_latency): run a
 * SimMPI's ranks here.  types: (Isend, Irecv, Wait, Waitall, Compute,
 * Sleep, Collective, Request, Message); msg_seq: fabric._msg_seq;
 * finish: SimMPI._finish_rank.  Needs the resident fabric. */
PyObject *
Kernel_adopt_ranks(KernelObject *k, PyObject *args)
{
    PyObject *types, *fabric, *msg_seq, *finish;
    double latency;
    if (!PyArg_ParseTuple(args, "O!OO!Od:adopt_ranks", &PyTuple_Type, &types,
                          &fabric, &PyList_Type, &msg_seq, &finish, &latency))
        return NULL;
    int ok = k->fab && !k->rk && PyTuple_GET_SIZE(types) == N_TYPES
        && PyList_GET_SIZE(msg_seq) == k->fab->n_nodes && PyCallable_Check(finish);
    for (int i = 0; ok && i < N_TYPES; i++)
        ok = PyType_Check(PyTuple_GET_ITEM(types, i));
    if (!ok) {
        PyErr_SetString(PyExc_ValueError,
                        "malformed rank adoption, no resident fabric, or "
                        "ranks are resident already");
        return NULL;
    }
    ranks_t *rk = PyMem_Calloc(1, sizeof(ranks_t));
    if (!rk)
        return PyErr_NoMemory();
    for (int i = 0; i < N_TYPES; i++)
        rk->types[i] = Py_NewRef(PyTuple_GET_ITEM(types, i));
    rk->fabric = Py_NewRef(fabric);
    rk->msg_seq = Py_NewRef(msg_seq);
    rk->finish = Py_NewRef(finish);
    rk->terminal_latency = latency;
    rk->free_recv = rk->free_umsg = -1;
    k->rk = rk;
    Py_RETURN_NONE;
}

/* add_job(app_id, name, [(rank_state, node, driver_lp, stats), ...]):
 * the ranks of a job that starts now, rank order; returns the slot of
 * its rank 0 (its rank r is slot + r). */
PyObject *
Kernel_add_job(KernelObject *k, PyObject *args)
{
    long long app_id;
    PyObject *name, *rows;
    ranks_t *rk = need_ranks(k);
    if (!rk || !PyArg_ParseTuple(args, "LOO!:add_job", &app_id, &name,
                                 &PyList_Type, &rows))
        return NULL;
    fabric_t *f = k->fab;
    Py_ssize_t n = PyList_GET_SIZE(rows);
    if (n < 1 || rk->n_ranks + n > INT32_MAX / 2) {
        PyErr_SetString(PyExc_ValueError, "add_job: no ranks, or too many");
        return NULL;
    }
    int32_t app = kern_app_slot(f, app_id);
    if (app < 0 || kern_grow(&rk->jobs, rk->n_jobs, &rk->cap_jobs,
                             sizeof(job_t)) < 0)
        return NULL;
    while (rk->n_ranks + n > rk->cap_ranks)
        if (kern_grow(&rk->ranks, rk->cap_ranks, &rk->cap_ranks,
                      sizeof(rank_t)) < 0)
            return NULL;
    int32_t first = rk->n_ranks;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *rs, *stats;
        int node, driver;
        long long sent, recvd, bytes;
        double comm, compute;
        PyObject *row = PyList_GET_ITEM(rows, i), *lat = NULL;
        if (!PyArg_ParseTuple(row, "OiiO:add_job row", &rs, &node, &driver,
                              &stats))
            goto fail;
        if (node < 0 || node >= f->n_nodes || driver < 0 || driver >= k->n_lps) {
            PyErr_SetString(PyExc_ValueError, "add_job: node or driver LP "
                                              "out of range");
            goto fail;
        }
        if (get_ll(stats, s_msgs_sent, &sent) < 0
            || get_ll(stats, s_msgs_recvd, &recvd) < 0
            || get_ll(stats, s_bytes_sent, &bytes) < 0
            || get_double(stats, s_comm_time, &comm) < 0
            || get_double(stats, s_compute_time, &compute) < 0
            || !(lat = PyObject_GetAttr(stats, s_latencies)))
            goto fail;
        if (!PyList_Check(lat)) {
            Py_DECREF(lat);
            PyErr_SetString(PyExc_TypeError, "RankStats.latencies is not a list");
            goto fail;
        }
        rank_t *r = &rk->ranks[first + i];
        memset(r, 0, sizeof(*r));
        r->rs = Py_NewRef(rs);
        r->stats = Py_NewRef(stats);
        r->lat = lat;
        r->msgs_sent = sent;
        r->msgs_recvd = recvd;
        r->bytes_sent = bytes;
        r->comm_time = comm;
        r->compute_time = compute;
        r->job = rk->n_jobs;
        r->rank = (int32_t)i;
        r->node = node;
        r->driver_lp = driver;
        r->post_head = r->post_tail = r->unex_head = r->unex_tail = -1;
        rk->n_ranks++;
    }
    job_t *j = &rk->jobs[rk->n_jobs];
    j->name = Py_NewRef(name);
    j->first = first;
    j->n = (int32_t)n;
    j->app = app;
    rk->n_jobs++;
    f->n_extra = rk->n_ranks + 1; /* a D_RANK item per rank, one D_MPI */
    if (kern_dirty_reserve(f) < 0)
        return NULL;
    return PyLong_FromLong(first);
fail:
    /* drop the rows taken so far: the job does not exist */
    while (rk->n_ranks > first) {
        rank_t *r = &rk->ranks[--rk->n_ranks];
        Py_CLEAR(r->rs);
        Py_CLEAR(r->stats);
        Py_CLEAR(r->lat);
    }
    return NULL;
}

/* begin_rank(slot, generator): SimMPI._begin_rank after the program
 * made its generator -- advance it until it first blocks. */
PyObject *
Kernel_begin_rank(KernelObject *k, PyObject *args)
{
    int slot;
    PyObject *gen;
    ranks_t *rk = need_ranks(k);
    if (!rk || !PyArg_ParseTuple(args, "iO:begin_rank", &slot, &gen))
        return NULL;
    if (slot < 0 || slot >= rk->n_ranks || rk->ranks[slot].state != R_NEW) {
        PyErr_SetString(PyExc_ValueError, "begin_rank: no such rank, or it "
                                          "began already");
        return NULL;
    }
    rank_t *r = &rk->ranks[slot];
    r->gen = Py_NewRef(gen);
    r->state = R_RUNNING;
    if (advance(k, slot, NULL) < 0)
        return NULL;
    Py_RETURN_NONE;
}

int
ranks_traverse(KernelObject *k, visitproc visit, void *arg)
{
    ranks_t *rk = k->rk;
    if (!rk)
        return 0;
    for (int i = 0; i < N_TYPES; i++)
        Py_VISIT(rk->types[i]);
    Py_VISIT(rk->fabric);
    Py_VISIT(rk->msg_seq);
    Py_VISIT(rk->finish);
    for (int32_t i = 0; i < rk->n_jobs; i++)
        Py_VISIT(rk->jobs[i].name);
    for (int32_t i = 0; i < rk->n_ranks; i++) {
        rank_t *r = &rk->ranks[i];
        Py_VISIT(r->rs);
        Py_VISIT(r->stats);
        Py_VISIT(r->lat);
        Py_VISIT(r->gen);
        Py_VISIT(r->group);
    }
    for (int32_t i = 0; i < rk->n_recvs; i++)
        Py_VISIT(rk->recvs[i].obj);
    return 0;
}

void
ranks_free(KernelObject *k)
{
    ranks_t *rk = k->rk;
    if (!rk)
        return;
    k->rk = NULL;
    for (int i = 0; i < N_TYPES; i++)
        Py_CLEAR(rk->types[i]);
    Py_CLEAR(rk->fabric);
    Py_CLEAR(rk->msg_seq);
    Py_CLEAR(rk->finish);
    for (int32_t i = 0; i < rk->n_jobs; i++)
        Py_CLEAR(rk->jobs[i].name);
    for (int32_t i = 0; i < rk->n_ranks; i++) {
        rank_t *r = &rk->ranks[i];
        Py_CLEAR(r->rs);
        Py_CLEAR(r->stats);
        Py_CLEAR(r->lat);
        Py_CLEAR(r->gen);
        Py_CLEAR(r->group);
        PyMem_Free(r->code);
        PyMem_Free(r->creq);
    }
    for (int32_t i = 0; i < rk->n_recvs; i++)
        Py_CLEAR(rk->recvs[i].obj);
    PyMem_Free(rk->ranks);
    PyMem_Free(rk->jobs);
    PyMem_Free(rk->recvs);
    PyMem_Free(rk->umsgs);
    PyMem_Free(rk);
}
