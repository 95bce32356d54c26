//! Tests of the transport: the contract both ABIs meet, and the gate
//! that lets a pass read only the queues whose channel fired.

use super::virtq::HeaderPages;
use super::*;
use crate::netback::DriverDomain;
use crate::netfront::CopyDiscipline;
use crate::virtio::virtqueue::{DeviceQueue, QueuePages, SplitQueue};
use mirage_hypervisor::event::EventError;
use mirage_hypervisor::{DomainId, Dur, Guest, Hypervisor, Step, Time, Wake};
use mirage_runtime::UnikernelGuest;
use mirage_testkit::corpus::CorpusGen;
use mirage_testkit::prop::collection;
use mirage_testkit::rng::Rng;
use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::rc::Rc;

/// Runs `body` inside a domain: hypercalls need an environment.
fn in_domain(body: impl FnOnce(&mut DomainEnv<'_>) + 'static) {
    struct Once<F>(Option<F>);
    impl<F: FnOnce(&mut DomainEnv<'_>)> Guest for Once<F> {
        fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
            self.0.take().expect("steps once")(env);
            Step::Exit(0)
        }
    }
    let mut hv = Hypervisor::new();
    let dom = hv.create_domain("loopback", 16, Box::new(Once(Some(body))));
    hv.run();
    assert_eq!(hv.exit_code(dom), Some(0));
}

/// Data buffers per queue: few enough to exhaust, and to recycle often.
const BUFFERS: usize = 6;

fn self_grant(env: &mut DomainEnv<'_>) -> (GrantRef, SharedPage) {
    let page = SharedPage::new();
    (env.grant(env.domid(), page.clone(), true), page)
}

fn virtq_pair(
    env: &mut DomainEnv<'_>,
    pages: QueuePages,
    headers: bool,
) -> (VirtqFront, VirtqBack) {
    let idle = (0..BUFFERS).map(|_| self_grant(env)).collect();
    let headers = headers.then(|| HeaderPages {
        idle,
        busy: HashMap::new(),
    });
    let back = VirtqBack {
        q: DeviceQueue::attach(pages.clone()),
        header_pages: HashMap::new(),
        status: HashMap::new(),
    };
    (
        VirtqFront {
            q: SplitQueue::new(pages),
            headers,
        },
        back,
    )
}

/// One front/back pair under test beside the `VecDeque` model of it:
/// what was posted and not yet published, published and not yet
/// taken, what dom0 holds, what it completed and has not published,
/// and what was published and not yet reaped.
struct Harness<F, B> {
    front: F,
    back: B,
    headers: bool,
    free: Vec<GrantRef>,
    serial: u32,
    staged: Vec<(u32, Vec<u8>, DataBuf)>,
    posted: VecDeque<(u32, Vec<u8>, DataBuf)>,
    held: Vec<u32>,
    completing: Vec<Completion>,
    completed: VecDeque<Completion>,
    /// The buffer behind each outstanding token.
    bufs: HashMap<u32, GrantRef>,
    /// Set when an `arm` found the queue quiet: the next post
    /// (completion) to be published must ask for a doorbell
    /// (interrupt), and until then none may.
    back_armed: bool,
    front_armed: bool,
}

impl<F: FrontTransport, B: BackTransport> Harness<F, B> {
    /// One scripted operation, checked against the model: requests
    /// come out of `take` in posting order with header and buffer
    /// intact, and only once published; every token is outstanding
    /// exactly once; completions come out of `reap` in completion
    /// order with length and status intact, and only once published;
    /// `room()` never lies. Publishing a burst of any size rings
    /// exactly when its first item is the first since a quiet `arm` —
    /// the OR of what publishing each alone would say — and a raced
    /// `arm` says so.
    fn step(&mut self, env: &mut DomainEnv<'_>, op: u8) {
        match op % 8 {
            0 | 1 => {
                if !self.front.room() {
                    assert!(!self.bufs.is_empty(), "an idle queue has room");
                    return;
                }
                let Some(gref) = self.free.pop() else { return };
                self.serial += 1;
                let n = self.serial as usize;
                let header = match self.headers {
                    true => self.serial.to_le_bytes().repeat(n % 4 + 1),
                    false => Vec::new(),
                };
                let data = DataBuf::page(gref, 64 * (n % 60 + 1), n.is_multiple_of(2));
                let token = self.front.post(&header, data);
                assert!(
                    self.bufs.insert(token, gref).is_none(),
                    "token {token} issued twice"
                );
                self.staged.push((token, header, data));
            }
            2 => {
                let bell = self.front.publish();
                let want = !self.staged.is_empty() && std::mem::take(&mut self.back_armed);
                assert_eq!(bell, want, "a burst's doorbell is the OR of its posts'");
                self.posted.extend(self.staged.drain(..));
            }
            3 => match (self.back.take(env), self.posted.pop_front()) {
                (None, None) => {}
                (Some(Ok(req)), Some((token, header, data))) => {
                    assert_eq!(
                        (req.token, &*req.header, req.data),
                        (token, &header[..], data)
                    );
                    self.held.push(token);
                }
                (got, want) => panic!("take gave {got:?}, the model {want:?}"),
            },
            4 if !self.held.is_empty() => {
                let token = self.held.swap_remove(op as usize / 8 % self.held.len());
                // Without a header a virtqueue has no status channel.
                let ok = !self.headers || !self.serial.is_multiple_of(3);
                let done = Completion {
                    token,
                    len: self.serial * 7 % 4000,
                    ok,
                };
                self.back.complete(env, done.token, done.len, done.ok);
                self.completing.push(done);
            }
            5 => {
                let irq = self.back.publish();
                let want = !self.completing.is_empty() && std::mem::take(&mut self.front_armed);
                assert_eq!(
                    irq, want,
                    "a burst's interrupt is the OR of its completions'"
                );
                self.completed.extend(self.completing.drain(..));
            }
            6 => {
                let want = self.completed.pop_front();
                assert_eq!(self.front.reap(), want);
                let buf = want.map(|done| self.bufs.remove(&done.token).expect("outstanding"));
                self.free.extend(buf);
            }
            7 => {
                let raced = self.back.arm();
                assert_eq!(raced, !self.posted.is_empty(), "back arm reports a race");
                self.back_armed = !raced;
                let raced = self.front.arm();
                assert_eq!(
                    raced,
                    !self.completed.is_empty(),
                    "front arm reports a race"
                );
                self.front_armed = !raced;
            }
            _ => {}
        }
    }

    /// Publishes, takes, completes and reaps until nothing is
    /// outstanding.
    fn drain(&mut self, env: &mut DomainEnv<'_>) {
        for op in [2u8, 3, 4, 5, 6].repeat(BUFFERS) {
            self.step(env, op);
        }
        assert!(
            self.bufs.is_empty() && self.free.len() == BUFFERS,
            "drained"
        );
        assert!(self.front.reap().is_none() && self.back.take(env).is_none());
    }
}

/// A quiet `arm` of both halves, `script`, then a drain, then a full
/// round: every slot, descriptor and header page the queue ever held
/// must have come back. (The first `arm` puts both ABIs' event marks
/// where the model starts: the zeroed pages disagree.)
fn contract<F: FrontTransport, B: BackTransport>(
    env: &mut DomainEnv<'_>,
    (front, back): (F, B),
    headers: bool,
    script: &[u8],
) {
    let mut h = Harness {
        front,
        back,
        headers,
        free: (0..BUFFERS).map(|_| self_grant(env).0).collect(),
        serial: 0,
        staged: Vec::new(),
        posted: VecDeque::new(),
        held: Vec::new(),
        completing: Vec::new(),
        completed: VecDeque::new(),
        bufs: HashMap::new(),
        back_armed: false,
        front_armed: false,
    };
    h.step(env, 7);
    for &op in script {
        h.step(env, op);
    }
    h.drain(env);
    for _ in 0..BUFFERS {
        h.step(env, 0);
    }
    assert_eq!(
        h.staged.len(),
        BUFFERS,
        "nothing leaked: a full set posts again"
    );
    h.drain(env);
}

mirage_testkit::property! {
    /// Both impl pairs meet the transport contract, with and without
    /// request headers, under any post/publish/take/complete/reap/arm
    /// schedule — bursts of every size, against event marks the arms
    /// leave at every point.
    fn transport_contract_holds_for_both_abis(
        script in collection::vec(0u8..=255, 1..160),
        headers in 0u8..2,
    ) {
        in_domain(move |env| {
            let headers = headers == 1;
            let (front, back) = mirage_ring::desc::pair();
            contract(env, (RingFront(front), RingBack(back)), headers, &script);
            let pair = virtq_pair(env, QueuePages::new(), headers);
            contract(env, pair, headers, &script);
        });
    }
}

// ------------------------------------------- a pass reads what fired

/// Runs `f` while every page in `pages` is borrowed: any access to
/// one of them from inside `f` panics.
fn untouched<R>(pages: &[SharedPage], f: impl FnOnce() -> R) -> R {
    match pages.split_first() {
        None => f(),
        Some((page, rest)) => page.write(|_| untouched(rest, f)),
    }
}

/// A Xen ring pair with the page it lives in.
fn ring_pair() -> ((RingFront, RingBack), Vec<SharedPage>) {
    let (front, back) = mirage_ring::desc::pair();
    let page = front.page().clone();
    ((RingFront(front), RingBack(back)), vec![page])
}

/// A header-less virtqueue pair with the three pages it lives in.
fn virtq_pages(env: &mut DomainEnv<'_>) -> ((VirtqFront, VirtqBack), Vec<SharedPage>) {
    let pages = QueuePages::new();
    let shared = vec![pages.desc.clone(), pages.avail.clone(), pages.used.clone()];
    (virtq_pair(env, pages, false), shared)
}

/// The two ends of one event channel inside a single domain: a
/// notification through either sets the other's pending bit (a
/// front notifies through its own port to wake the back).
fn channel(env: &mut DomainEnv<'_>) -> (Port, Port) {
    let a = env.evtchn_alloc_unbound(env.domid());
    let b = env.evtchn_bind(env.domid(), a).expect("bound");
    (a, b)
}

/// One gated consumer pass of each half, as the devices make it: read
/// only if the channel fired or the last arm raced, then re-arm what
/// was read. Returns the tokens handed out and whether to poll again.
fn front_pass<F: FrontTransport>(
    env: &mut DomainEnv<'_>,
    front: &mut F,
    gate: &mut Gate,
    port: Port,
) -> (Vec<u32>, bool) {
    let mut got = Vec::new();
    if gate.open(env, port) {
        got.extend(std::iter::from_fn(|| front.reap()).map(|c| c.token));
    }
    (got, gate.close(|| front.arm()))
}

fn back_pass<B: BackTransport>(
    env: &mut DomainEnv<'_>,
    back: &mut B,
    gate: &mut Gate,
    port: Port,
) -> (Vec<u32>, bool) {
    let mut got = Vec::new();
    if gate.open(env, port) {
        while let Some(taken) = back.take(env) {
            got.push(taken.map_or_else(|t| t, |r| r.token));
        }
    }
    (got, gate.close(|| back.arm()))
}

/// The contract case of the quiet-ring cut, on both ABIs: once a pass
/// has armed with no race, a pass whose channel is not pending reads
/// no shared page; a request (completion) the peer publishes and
/// notifies is taken (reaped) on the very next pass.
fn quiet_pass_case<F: FrontTransport, B: BackTransport>(
    env: &mut DomainEnv<'_>,
    (mut front, mut back): (F, B),
    pages: &[SharedPage],
) {
    let (front_port, back_port) = channel(env);
    let (mut front_gate, mut back_gate) = (Gate::default(), Gate::default());
    let (gref, _) = self_grant(env);
    for _ in 0..2 {
        assert_eq!(
            front_pass(env, &mut front, &mut front_gate, front_port),
            (vec![], false)
        );
        assert_eq!(
            back_pass(env, &mut back, &mut back_gate, back_port),
            (vec![], false)
        );
        untouched(pages, || {
            let quiet = front_pass(env, &mut front, &mut front_gate, front_port);
            assert_eq!(quiet, (vec![], false), "a quiet front pass");
            let quiet = back_pass(env, &mut back, &mut back_gate, back_port);
            assert_eq!(quiet, (vec![], false), "a quiet back pass");
        });

        let token = front.post(&[], DataBuf::page(gref, 64, false));
        assert!(front.publish(), "an armed backend asks for a doorbell");
        env.evtchn_notify(front_port).expect("bound");
        let (taken, _) = back_pass(env, &mut back, &mut back_gate, back_port);
        assert_eq!(taken, [token], "taken on the next pass");

        back.complete(env, token, 64, true);
        assert!(back.publish(), "an armed frontend asks for an interrupt");
        env.evtchn_notify(back_port).expect("bound");
        let (reaped, _) = front_pass(env, &mut front, &mut front_gate, front_port);
        assert_eq!(reaped, [token], "reaped on the next pass");
    }
}

#[test]
fn a_quiet_pass_reads_no_shared_page_on_both_abis() {
    in_domain(|env| {
        let (pair, pages) = ring_pair();
        quiet_pass_case(env, pair, &pages);
        let (pair, pages) = virtq_pages(env);
        quiet_pass_case(env, pair, &pages);
    });
}

/// A gated pair — its consumers read only what fired, with event-index
/// suppression deciding every notification — beside an identical
/// reference pair whose consumers poll and re-arm on every pass.
struct Gated<F, B> {
    gated: (F, B),
    reference: (F, B),
    pages: Vec<SharedPage>,
    gates: (Gate, Gate),
    /// The ports the front and the back listen on.
    ports: (Port, Port),
    /// Per half: whether its last pass armed with no race, and whether
    /// the peer has notified it since. Armed and not notified is a
    /// pass that must read nothing.
    armed: (bool, bool),
    notified: (bool, bool),
    free: Vec<GrantRef>,
    held: Vec<u32>,
}

impl<F: FrontTransport, B: BackTransport> Gated<F, B> {
    /// One scripted operation. Both pairs are driven alike; every
    /// pass must hand out the same items from both, a pass that reads
    /// nothing touches no page, and both pairs ask for the same
    /// notifications.
    fn step(&mut self, env: &mut DomainEnv<'_>, op: u8) {
        let (front_port, back_port) = self.ports;
        match op % 4 {
            0 => {
                if !self.gated.0.room() {
                    return;
                }
                let Some(gref) = self.free.pop() else { return };
                let data = DataBuf::page(gref, 64 + usize::from(op), false);
                let token = self.gated.0.post(&[], data);
                assert_eq!(self.reference.0.post(&[], data), token);
                let bell = self.gated.0.publish();
                assert_eq!(self.reference.0.publish(), bell, "same doorbell");
                if bell {
                    env.evtchn_notify(front_port).expect("bound");
                    self.notified.1 = true;
                }
            }
            1 => {
                let pages = &self.pages;
                let (back, gate) = (&mut self.gated.1, &mut self.gates.1);
                let quiet = self.armed.1 && !std::mem::take(&mut self.notified.1);
                let (got, raced) = if quiet {
                    untouched(pages, || back_pass(env, back, gate, back_port))
                } else {
                    back_pass(env, back, gate, back_port)
                };
                self.armed.1 = !raced;
                let reference = &mut self.reference.1;
                let want: Vec<u32> = std::iter::from_fn(|| reference.take(env))
                    .map(|t| t.map_or_else(|t| t, |r| r.token))
                    .collect();
                assert_eq!(got, want, "a gated take gets what polling does");
                assert_eq!(raced, reference.arm(), "same race");
                self.held.extend(got);
            }
            2 if !self.held.is_empty() => {
                let token = self.held.swap_remove(usize::from(op / 4) % self.held.len());
                self.gated.1.complete(env, token, 64, true);
                self.reference.1.complete(env, token, 64, true);
                let irq = self.gated.1.publish();
                assert_eq!(self.reference.1.publish(), irq, "same interrupt");
                if irq {
                    env.evtchn_notify(back_port).expect("bound");
                    self.notified.0 = true;
                }
            }
            3 => {
                let pages = &self.pages;
                let (front, gate) = (&mut self.gated.0, &mut self.gates.0);
                let quiet = self.armed.0 && !std::mem::take(&mut self.notified.0);
                let (got, raced) = if quiet {
                    untouched(pages, || front_pass(env, front, gate, front_port))
                } else {
                    front_pass(env, front, gate, front_port)
                };
                self.armed.0 = !raced;
                let reference = &mut self.reference.0;
                let want: Vec<u32> = std::iter::from_fn(|| reference.reap())
                    .map(|c| c.token)
                    .collect();
                assert_eq!(got, want, "a gated reap gets what polling does");
                assert_eq!(raced, reference.arm(), "same race");
                for token in got {
                    self.free.push(GrantRef(token));
                }
            }
            _ => {}
        }
    }
}

fn gated_case<F: FrontTransport, B: BackTransport>(
    env: &mut DomainEnv<'_>,
    (gated, pages): ((F, B), Vec<SharedPage>),
    reference: (F, B),
    script: &[u8],
) {
    let ports = channel(env);
    let mut h = Gated {
        gated,
        reference,
        pages,
        gates: (Gate::default(), Gate::default()),
        ports,
        armed: (false, false),
        notified: (false, false),
        free: (0..BUFFERS).map(|_| self_grant(env).0).collect(),
        held: Vec::new(),
    };
    for &op in script {
        h.step(env, op);
    }
}

mirage_testkit::property! {
    /// Under any post/complete/notify schedule, with event-index
    /// suppression deciding each notification, a consumer that reads
    /// only when its channel fired or its last arm raced hands out the
    /// same items in the same passes as one that polls every pass —
    /// and a pass that reads nothing touches no shared page.
    fn a_gated_consumer_takes_what_an_always_polling_one_does(
        script in collection::vec(0u8..=255, 1..200),
    ) {
        in_domain(move |env| {
            let (reference, _) = ring_pair();
            gated_case(env, ring_pair(), reference, &script);
            let (reference, _) = virtq_pages(env);
            let gated = virtq_pages(env);
            gated_case(env, gated, reference, &script);
        });
    }
}

// ----------------------------------------------- a hostile handshake

/// A frontend of each kind and ABI in one guest that exits 0 after 20 ms,
/// beside `dom0`; runs 100 ms and returns every frontend's `state`.
fn handshake(xs: &Xenstore, dom0: Box<dyn Guest>) -> Vec<Option<String>> {
    let mut hv = Hypervisor::new();
    hv.create_domain("dom0", 512, dom0);
    let mut guest = UnikernelGuest::new(|_env, rt| {
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(20)).await;
            0
        })
    });
    for backend in Backend::ALL {
        let (nic, _) = backend.net_multiqueue(
            xs.clone(),
            "nic",
            [2, 0, 0, 0, 0, 9],
            CopyDiscipline::ZeroCopy,
            2,
        );
        guest.add_device(nic);
        guest.add_device(backend.blk(xs.clone(), "disk", 64).0);
    }
    let gdom = hv.create_domain("guest", 64, Box::new(guest));
    hv.run_until(Time::ZERO + Dur::millis(100));
    assert_eq!(hv.exit_code(gdom), Some(0), "the frontends did not panic");
    let states = xs.keys_with_prefix("device/").into_iter();
    let states = states.filter(|k| k.ends_with("/state"));
    let states: Vec<_> = states.map(|k| xs.read_host(&k)).collect();
    assert_eq!(states.len(), 4, "every frontend advertised");
    states
}

/// After every handshake, before the guest exits.
const NOTIFY_AT: Time = Time::from_nanos(10_000_000);

/// A driver domain that answers every frontend with the event ports `lie`
/// names, not all channels it allocated for it. At [`NOTIFY_AT`] it
/// notifies each `q0` port it published and keeps what each notify returned.
struct WrongPort {
    xs: Xenstore,
    lie: fn(&mut DomainEnv<'_>, DomainId, &str) -> Port,
    answered: bool,
    q0: Vec<Port>,
    notified: Rc<RefCell<Vec<Result<(), EventError>>>>,
}

impl Guest for WrongPort {
    fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
        if !self.answered {
            self.xs.register_watcher(env.domid());
            self.xs
                .write(env, "backend-domid", &env.domid().0.to_string());
            self.answered = true;
        }
        // A frontend kicks what it bound; an unread pending bit keeps us runnable.
        for &port in &self.q0 {
            let _ = env.evtchn_consume(port);
        }
        if env.now() >= NOTIFY_AT {
            let notified = self.q0.drain(..).map(|port| env.evtchn_notify(port));
            self.notified.borrow_mut().extend(notified);
            return Step::Yield(Wake::never());
        }
        for key in self.xs.keys_with_prefix("device/") {
            let Some(base) = key.strip_suffix("/state") else {
                continue;
            };
            let front = self.xs.read_host(&format!("{base}/frontend-domid"));
            let front = DomainId(front.and_then(|d| d.parse().ok()).unwrap_or_default());
            for leaf in ["q0/event-port", "q1/event-port", "event-port"] {
                let key = format!("{base}/{leaf}");
                if self.xs.read_host(&key).is_none() {
                    let port = (self.lie)(env, front, leaf);
                    self.xs.write(env, &key, &port.0.to_string());
                    self.q0.extend((leaf == "q0/event-port").then_some(port));
                }
            }
        }
        Step::Yield(Wake::at(NOTIFY_AT))
    }
}

/// A port the backend did not allocate for this guest — none at all, or
/// one another domain may bind — leaves every device unconnected, on
/// both ABIs, instead of panicking the frontend. So does a real port for
/// queue 0 beside a bogus one for queue 1: the NIC has bound queue 0 by
/// then and closes it again, so nothing the backend notifies reaches it.
#[test]
fn a_port_the_backend_did_not_allocate_leaves_the_device_unconnected() {
    let lies: [fn(&mut DomainEnv<'_>, DomainId, &str) -> Port; 3] = [
        |_, _, _| Port(999),
        |env, _, _| env.evtchn_alloc_unbound(DomainId(77)),
        |env, front, leaf| match leaf {
            "q0/event-port" => env.evtchn_alloc_unbound(front),
            _ => Port(999),
        },
    ];
    for lie in lies {
        let xs = Xenstore::new();
        let notified = Rc::new(RefCell::new(Vec::new()));
        let dom0 = WrongPort {
            xs: xs.clone(),
            lie,
            answered: false,
            q0: Vec::new(),
            notified: Rc::clone(&notified),
        };
        let states = handshake(&xs, Box::new(dom0));
        assert!(
            states.iter().all(|s| s.as_deref() == Some("initialising")),
            "{states:?}"
        );
        let notified = notified.borrow();
        let refused = notified.len() == 4 && notified.iter().all(Result::is_err);
        assert!(refused, "a q0 port per frontend, all refused: {notified:?}");
    }
}

/// The real driver domain behind a xenstore that lies: before and after
/// each of its steps, every handshake value either side wrote — queue
/// count, grant refs, event ports, sectors, frontend domain — is, once
/// and by a coin toss, replaced by a `CorpusGen` mutation of itself.
struct Tampered {
    dom0: DriverDomain,
    xs: Xenstore,
    corpus: CorpusGen,
    coin: Rng,
    seen: HashSet<String>,
}

impl Tampered {
    fn tamper(&mut self) {
        for key in self.xs.keys_with_prefix("device/") {
            let leaf = key.rsplit('/').next().unwrap_or_default();
            let read = ["queues", "event-port", "sectors", "frontend-domid"].contains(&leaf)
                || ["ring", "desc", "avail", "used"]
                    .iter()
                    .any(|a| leaf.ends_with(a));
            if !read || !self.seen.insert(key.clone()) || self.coin.gen_bool(0.5) {
                continue;
            }
            let value = self.xs.read_host(&key).unwrap_or_default();
            let lie = self.corpus.case(&[value.into_bytes()]);
            self.xs.write_host(&key, &String::from_utf8_lossy(&lie));
        }
    }
}

impl Guest for Tampered {
    fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
        self.tamper();
        let step = self.dom0.step(env);
        self.tamper();
        step
    }
}

/// Whatever the handshake values say, neither the driver
/// domain nor a frontend panics — each device attaches or stays
/// unattached — and the corpus reaches both outcomes.
#[test]
fn xenstore_handshake_values_under_corpus_never_panic() {
    let seed = mirage_testkit::test_seed();
    let (mut connected, mut unconnected) = (0, 0);
    for case in 0..48 {
        let stream = format!("fuzz-xenstore-{case}");
        let xs = Xenstore::new();
        let dom0 = Tampered {
            dom0: DriverDomain::new(xs.clone()),
            xs: xs.clone(),
            corpus: CorpusGen::for_stream(seed, &stream),
            coin: Rng::for_stream(seed, &stream),
            seen: HashSet::new(),
        };
        for state in handshake(&xs, Box::new(dom0)) {
            match state.as_deref() {
                Some("connected") => connected += 1,
                Some("initialising") => unconnected += 1,
                other => panic!("a frontend in state {other:?}"),
            }
        }
    }
    assert!(
        connected > 0 && unconnected > 0,
        "the corpus reaches both outcomes: {connected} connected, {unconnected} not"
    );
}
