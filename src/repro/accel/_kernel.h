/* _kernel.h: what the kernel's two translation units share.
 *
 *   _kernel.c  the (time, priority, seq) heap, the commit loops, the
 *              resident fabric and the Kernel type;
 *   _ranks.c   resident ranks: SimMPI's matching queues, requests,
 *              waits, compute wakeups and collective schedules.
 *
 * accel/build.py compiles both units concurrently and links them into
 * one extension module; symbols shared between them are prefixed kern_
 * (defined in _kernel.c) or ranks_ (defined in _ranks.c) and hidden
 * outside the module.
 */

#ifndef UNION_ACCEL_KERNEL_H
#define UNION_ACCEL_KERNEL_H

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>

#define SEQ_ORIGIN_SHIFT 40
#define ABI_VERSION 4
#define PATH_MAX_HOPS 64 /* longest router path a packet may carry */
#define PATH_INLINE 10   /* stored in the packet itself up to here   */

/* ---------------------------------------------------------------- */
/* heap entries                                                      */

/* EV_PY carries an Event; the others are native: the fabric's packet
 * (EV_PKT from a NIC, EV_PORT from a router port -- the head of that
 * port's FIFO of pending arrivals, ref = port), NIC drain
 * and injection-done events, a resident rank's self-send and its
 * compute wakeup. */
enum { EV_PY = 0, EV_PKT, EV_PORT, EV_DRAIN, EV_INJ_DONE, EV_LOOPBACK,
       EV_WAKE };

/* repro.pdes.event.Priority */
enum { PRIO_NETWORK = 1, PRIO_WAKEUP = 3 };

typedef struct {
    double time;
    int64_t seq;
    int32_t dst;
    int16_t prio;
    int16_t kind;
    union {
        PyObject *ev; /* EV_PY: the Event (owned)                     */
        int64_t ref;  /* a packet, a message slot or a rank slot      */
    } u;
} entry_t;

/* ---------------------------------------------------------------- */
/* resident fabric state                                             */

/* The fabric's constants arrive as arrays of these rows, packed by
 * accel/dispatch.py exactly as declared (all int32, or all double). */
typedef struct {
    int32_t lp_id, port0, adj0; /* first port / neighbour slot; the   */
} rrow_t;                       /* array ends with a closing row      */

typedef struct {
    int32_t peer;               /* LP the port feeds                  */
    int32_t link, router, local, peer_router, hop_inc;
} prow_t;

typedef struct {
    double bw, extra;           /* bandwidth, post-transmit latency   */
} plink_t;

typedef struct {
    int32_t lp_id, router, router_lp, eject_port, uplink;
} trow_t;

/* ... and the state that changes: */
typedef struct {
    double time;
    int64_t seq;
    int32_t pkt;
} arrival_t;               /* a packet bound for the far end of a port   */

typedef struct {
    double busy;
    double *ring;          /* pending transmit starts, power-of-two ring */
    int64_t head, tail;    /* absolute pop / push counts                 */
    int64_t synced_head, synced_tail; /* as of the last flush            */
    arrival_t *fifo;       /* pending arrivals, head in the heap: ring   */
    int64_t fhead, ftail;  /* absolute pop / push counts                 */
    int32_t cap, fcap;
    int8_t dirty;
} port_t;

typedef struct {
    int64_t forwarded;
    int8_t dirty;
} router_t;

typedef struct {
    double busy;
    int64_t pkt_seq;               /* packets this node has injected   */
    int64_t head, tail;            /* absolute pop / push packet counts */
    int64_t synced_head, synced_tail; /* as of the last flush          */
    int64_t cur_left;              /* the inj_queue cursor: flush_nic  */
    int32_t cur_slot;
    int32_t qhead, qtail;          /* FIFO of message slots; -1: empty */
    int8_t dirty;
} term_t;

typedef struct {
    int64_t msg_id, size, remaining;
    int64_t left;                  /* bytes not yet turned to packets  */
    int32_t app, dst_node;
    int32_t next;                  /* next in the NIC FIFO / free list */
    int8_t injected, delivered;    /* slot is reused once both are set */
    /* A message a resident rank sent carries SimMPI's meta here;
     * sender is -1 on a message Python sent (its seams are Python's). */
    int32_t sender, receiver;      /* rank slots                       */
    int32_t sreq;                  /* the sender's schedule request... */
    PyObject *sobj;                /* ... or its Request (owned)       */
    int64_t tag;
    double posted_at;
} msg_t;

typedef struct {
    int64_t size;
    int32_t *ext;                  /* the path when plen > PATH_INLINE  */
    int32_t slot, app, dst_node, next_free;
    int16_t hop, plen;
    int32_t inl[PATH_INLINE];      /* ... and when it is not            */
} pkt_t;

typedef struct {
    int64_t app_id, total, nonmin; /* packet-count deltas              */
    int32_t policy;                /* -1: the fabric-wide policy       */
    int8_t dirty_total, dirty_nonmin;
} app_t;

typedef struct {
    int64_t bin, delta;            /* bytes not yet in the Python bin  */
    int8_t dirty;
} cell_t;

typedef struct {
    PyObject *obj, *streams;       /* owned                            */
    uint64_t *state;               /* one SplitMix word per router     */
    int8_t *sdirty;
    double bias;
    int32_t kind, last_src;
} policy_t;

/* What a flush has to write back, in first-touch order: the fabric's
 * items, then a resident rank's RankStats (D_RANK) and the message
 * totals its sends and deliveries moved (D_MPI). */
enum { D_PORT, D_ROUTER, D_LINK, D_CELL, D_TOTAL, D_NONMIN, D_TERM, D_STREAM,
       D_RANK, D_MPI };

typedef struct {
    int32_t kind, idx;
} dirty_t;

/* The items of the adoption tuple: seven lists (their required lengths
 * are in Kernel_adopt), two dicts, then a dict-like and five callables. */
enum {
    O_LPS_R, O_BUSY_LISTS, O_PENDING_LISTS, O_LPS_T, O_INJ_QUEUES,
    O_LINK_BYTES, O_PKT_SEQ, O_TOTAL_PACKETS, O_NONMIN_PACKETS, O_APP_BINS,
    O_APP_RECORD, O_ON_INJECTED, O_ON_DELIVERED, O_LOCAL_TAILS,
    O_CHECKED_PATH, N_OBJS
};

typedef struct {
    int32_t n_routers, n_nodes, n_ports, n_links;
    rrow_t *rrow;
    prow_t *prow;
    plink_t *plink;
    trow_t *trow;
    router_t *routers;
    port_t *ports;
    term_t *terms;
    int32_t *adj;      /* per neighbour slot: (neighbour, first cand), +1 row */
    int32_t *cand;     /* candidate ports towards a neighbour              */
    double terminal_bw, inject_latency, window;
    int64_t packet_bytes;
    int app_on, load_on;
    int64_t *link_delta;
    int8_t *link_dirty;
    msg_t *msgs;
    pkt_t *pkts;
    int32_t n_msgs, cap_msgs, free_msg, n_pkts, cap_pkts, free_pkt;
    app_t *apps;
    cell_t *cells;     /* [app][router] */
    policy_t *pols;
    int32_t n_apps, n_pols, default_pol;
    /* dragonfly tables (n_groups == 0: no native policy possible):
     * gw / gp hold (n_groups^2 | n_routers*n_groups) + 1 offsets into
     * themselves, then the gateway routers / global ports */
    int32_t n_groups, rpg;
    int32_t *gw, *gp;
    int32_t *tails_at; /* [src][dst % rpg] -> offset into tails, 0: unset */
    int32_t *tails;    /* ntails, then (len, routers...) per tail         */
    int32_t n_tails, cap_tails;
    dirty_t *dirty;
    Py_ssize_t n_dirty;
    Py_ssize_t n_extra; /* dirty items the resident ranks may add        */
    long long py_calls; /* local_tails fetches (Kernel.py_entries)       */
    /* the tuple accel/dispatch.py handed over (owned), and its items:
     * the Python mirrors and the callables Python is entered through */
    PyObject *objs, *o[N_OBJS];
} fabric_t;

/* ---------------------------------------------------------------- */
/* the Kernel object                                                 */

enum { ROW_PY = 0, ROW_ROUTER, ROW_TERMINAL };

typedef struct {
    PyObject *handle; /* bound lp.handle (owned)                      */
    int32_t part;     /* partition (conservative mode)                */
    int32_t index;    /* router id / node of a resident row           */
    int32_t kind;
} lp_t;

typedef struct ranks_s ranks_t; /* _ranks.c */

typedef struct {
    PyObject_HEAD
    entry_t *heap;
    Py_ssize_t len, cap;
    Py_ssize_t heap_peak;   /* the most entries the heap ever held    */
    int64_t *counters;      /* slot 0 = environment, then one per LP  */
    lp_t *lps;
    Py_ssize_t n_lps, cap_lps;
    double now;
    long origin;            /* seq slot owner; -1 outside handlers    */
    int conservative;
    double lookahead;
    long n_partitions;
    long current_partition; /* gates the push-side lookahead check    */
    int64_t *per_part;      /* committed per partition                */
    long long windows_executed;
    long long max_window_events;
    long long events_processed;
    long long sync_ops;     /* mirror writes performed by flushes     */
    long long flushes;      /* flushes that wrote anything            */
    long long py_entries;   /* calls into Python                      */
    long long mpi_in_flight; /* resident ranks' messages in flight    */
    fabric_t *fab;
    ranks_t *rk;
} KernelObject;

/* The dirty list has room for every markable item (kern_dirty_reserve),
 * so marking cannot fail. */
static inline void
mark(fabric_t *f, int kind, int32_t idx, int8_t *flag)
{
    if (!*flag) {
        *flag = 1;
        f->dirty[f->n_dirty].kind = kind;
        f->dirty[f->n_dirty++].idx = idx;
    }
}

/* _kernel.c, for _ranks.c */
int kern_sched(KernelObject *k, double time, int32_t dst, int kind, int prio,
               int64_t ref);
int kern_flush(KernelObject *k);
int kern_grow(void *arr, int32_t n, int32_t *cap, size_t size);
int kern_dirty_reserve(fabric_t *f);
int32_t kern_app_slot(fabric_t *f, int64_t app_id);
int32_t kern_msg_alloc(fabric_t *f);
void kern_msg_release(fabric_t *f, int32_t i);
int kern_inject(KernelObject *k, int32_t slot, int32_t src);
PyObject *kern_plus_delta(PyObject *cur, int64_t delta);

/* _ranks.c, for _kernel.c */
int ranks_init(void);
int ranks_dispatch(KernelObject *k, const entry_t *e);
int ranks_injected(KernelObject *k, int32_t slot);
int ranks_delivered(KernelObject *k, int32_t slot);
int ranks_flush_one(KernelObject *k, dirty_t d);
int ranks_traverse(KernelObject *k, visitproc visit, void *arg);
void ranks_free(KernelObject *k);
PyObject *Kernel_adopt_ranks(KernelObject *k, PyObject *args);
PyObject *Kernel_add_job(KernelObject *k, PyObject *args);
PyObject *Kernel_begin_rank(KernelObject *k, PyObject *args);

#endif /* UNION_ACCEL_KERNEL_H */
