//! The secure session established after successful attestation
//! (Fig. 7 step ⑩), and the pool a verifier-side service keeps them in.
//!
//! A [`SecureSession`] enforces strict message ordering in both directions:
//! `seal` derives each nonce from a send counter, and `open` rejects any
//! authenticated message whose counter is not the next one expected
//! ([`OpenError::OutOfOrder`]) — replayed and reordered traffic fails even
//! though the underlying `SecretBox` would authenticate it.
//!
//! A [`SessionPool`] is shared-state concurrent: one map from client tag to
//! session under an [`OrderedMutex`] at [`rank::VERIFIER_SESSIONS`], the
//! last rank a verifier thread takes.

use sanctorum_core::lockorder::{rank, OrderedMutex};
use sanctorum_crypto::secretbox::{OpenError, SecretBox, NONCE_LEN};
use std::collections::BTreeMap;

/// An authenticated-encryption session keyed by the attested key agreement.
///
/// Both sides derive the same two directional keys from the shared secret;
/// message nonces are derived from a per-direction counter, so each side must
/// use its own `seal` counter and accept the peer's **in order**.
#[derive(Debug)]
pub struct SecureSession {
    sealer: SecretBox,
    send_counter: u64,
    recv_counter: u64,
}

impl SecureSession {
    /// Derives a session from the X25519 shared secret and the attestation
    /// nonce (which both sides know and which binds the session to this
    /// attestation exchange).
    pub fn new(shared_secret: &[u8; 32], attestation_nonce: &[u8; 32]) -> Self {
        let mut context = Vec::with_capacity(64);
        context.extend_from_slice(b"sanctorum-attested-session-v1");
        context.extend_from_slice(attestation_nonce);
        Self {
            sealer: SecretBox::derive(shared_secret, &context),
            send_counter: 0,
            recv_counter: 0,
        }
    }

    /// Seals an application message under the next send-counter nonce.
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let mut nonce = [0u8; NONCE_LEN];
        nonce[..8].copy_from_slice(&self.send_counter.to_le_bytes());
        self.send_counter += 1;
        self.sealer.seal(&nonce, plaintext)
    }

    /// Opens a message sealed by the peer, enforcing strict ordering.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`OpenError`] if authentication fails, and
    /// [`OpenError::OutOfOrder`] if the message authenticates but its
    /// counter is not the next one this session expects — a replayed or
    /// reordered message never advances the session.
    pub fn open(&mut self, sealed: &[u8]) -> Result<Vec<u8>, OpenError> {
        let plaintext = self.sealer.open(sealed)?;
        // Authenticated, so the leading nonce bytes are the peer's counter
        // as sealed (the tag covers them). Only the expected counter opens.
        let mut counter_bytes = [0u8; 8];
        counter_bytes.copy_from_slice(&sealed[..8]);
        let counter = u64::from_le_bytes(counter_bytes);
        let padding_clean = sealed[8..NONCE_LEN].iter().all(|&b| b == 0);
        if counter != self.recv_counter || !padding_clean {
            return Err(OpenError::OutOfOrder);
        }
        self.recv_counter += 1;
        Ok(plaintext)
    }

    /// Number of messages sealed so far.
    pub fn messages_sent(&self) -> u64 {
        self.send_counter
    }

    /// Number of messages opened (accepted in order) so far.
    pub fn messages_received(&self) -> u64 {
        self.recv_counter
    }
}

/// What [`SessionPool::insert`] did with the previous state for the client.
///
/// A `Replaced` outcome means a *live* session was silently displaced — the
/// session-fixation shape the attestation workloads assert never happens by
/// accident (a client tag must be removed before it may be re-attested, or
/// the caller explicitly expected the replacement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// No session existed for the client; the pool grew by one.
    Fresh,
    /// A live session for the same client was dropped and replaced.
    Replaced,
}

impl InsertOutcome {
    /// `true` for [`InsertOutcome::Fresh`].
    pub fn is_fresh(self) -> bool {
        matches!(self, InsertOutcome::Fresh)
    }
}

/// A concurrent pool of established sessions keyed by a caller-chosen client
/// tag (the attestation-service workload uses the client's enclave id).
///
/// The map is one [`OrderedMutex`] at [`rank::VERIFIER_SESSIONS`], above
/// every other verifier rank, so pool operations from many verifier threads
/// compose with the lock-order discipline.
#[derive(Debug)]
pub struct SessionPool {
    /// lock rank: rank::VERIFIER_SESSIONS
    sessions: OrderedMutex<BTreeMap<u64, SecureSession>>,
}

impl Default for SessionPool {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self {
            sessions: OrderedMutex::new(rank::VERIFIER_SESSIONS, BTreeMap::new()),
        }
    }

    /// Stores the session established for `client`, reporting whether a live
    /// session was displaced.
    pub fn insert(&self, client: u64, session: SecureSession) -> InsertOutcome {
        match self.sessions.lock().insert(client, session) {
            None => InsertOutcome::Fresh,
            Some(_) => InsertOutcome::Replaced,
        }
    }

    /// Runs `f` over the live session for `client`, if any. The closure runs
    /// under the pool lock, so keep it to the session traffic itself.
    pub fn with_session<R>(&self, client: u64, f: impl FnOnce(&mut SecureSession) -> R) -> Option<R> {
        self.sessions.lock().get_mut(&client).map(f)
    }

    /// Drops `client`'s session (e.g. after its enclave is torn down).
    pub fn remove(&self, client: u64) -> Option<SecureSession> {
        self.sessions.lock().remove(&client)
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Returns `true` if no session is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_sides_interoperate() {
        let mut a = SecureSession::new(&[9; 32], &[1; 32]);
        let mut b = SecureSession::new(&[9; 32], &[1; 32]);
        let sealed = a.seal(b"hello enclave");
        assert_eq!(b.open(&sealed).expect("opens"), b"hello enclave");
        assert_eq!(a.messages_sent(), 1);
        assert_eq!(b.messages_received(), 1);
    }

    #[test]
    fn different_attestation_nonce_separates_sessions() {
        let mut a = SecureSession::new(&[9; 32], &[1; 32]);
        let mut b = SecureSession::new(&[9; 32], &[2; 32]);
        let sealed = a.seal(b"hello");
        assert!(b.open(&sealed).is_err());
    }

    #[test]
    fn tampered_traffic_rejected() {
        let mut a = SecureSession::new(&[9; 32], &[1; 32]);
        let mut b = SecureSession::new(&[9; 32], &[1; 32]);
        let mut sealed = a.seal(b"hello");
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        assert!(b.open(&sealed).is_err());
    }

    #[test]
    fn counter_advances_nonces() {
        let mut a = SecureSession::new(&[9; 32], &[1; 32]);
        let s1 = a.seal(b"same");
        let s2 = a.seal(b"same");
        assert_ne!(s1, s2);
    }

    #[test]
    fn replayed_message_rejected() {
        let mut a = SecureSession::new(&[9; 32], &[1; 32]);
        let mut b = SecureSession::new(&[9; 32], &[1; 32]);
        let sealed = a.seal(b"once");
        assert!(b.open(&sealed).is_ok());
        assert_eq!(b.open(&sealed), Err(OpenError::OutOfOrder));
        // The replay did not advance the session: the next message opens.
        let next = a.seal(b"twice");
        assert_eq!(b.open(&next).expect("opens"), b"twice");
    }

    #[test]
    fn out_of_order_message_rejected() {
        let mut a = SecureSession::new(&[9; 32], &[1; 32]);
        let mut b = SecureSession::new(&[9; 32], &[1; 32]);
        let first = a.seal(b"first");
        let second = a.seal(b"second");
        assert_eq!(b.open(&second), Err(OpenError::OutOfOrder));
        // Delivery in order still works after the reorder was rejected.
        assert_eq!(b.open(&first).expect("opens"), b"first");
        assert_eq!(b.open(&second).expect("opens"), b"second");
    }

    #[test]
    fn pool_insert_reports_fresh_and_replaced() {
        let pool = SessionPool::new();
        assert_eq!(
            pool.insert(7, SecureSession::new(&[1; 32], &[1; 32])),
            InsertOutcome::Fresh
        );
        assert_eq!(
            pool.insert(7, SecureSession::new(&[2; 32], &[2; 32])),
            InsertOutcome::Replaced
        );
        assert!(pool.remove(7).is_some());
        assert_eq!(
            pool.insert(7, SecureSession::new(&[3; 32], &[3; 32])),
            InsertOutcome::Fresh
        );
    }

    #[test]
    fn pool_shards_interleave_and_count() {
        let pool = SessionPool::new();
        for client in 0..64u64 {
            assert!(pool
                .insert(client, SecureSession::new(&[9; 32], &[client as u8; 32]))
                .is_fresh());
        }
        assert_eq!(pool.len(), 64);
        // Traffic through the pool accessor round-trips per client.
        let mut peer = SecureSession::new(&[9; 32], &[5u8; 32]);
        let sealed = peer.seal(b"to client 5");
        let opened = pool
            .with_session(5, |session| session.open(&sealed))
            .expect("session exists")
            .expect("opens");
        assert_eq!(opened, b"to client 5");
        assert_eq!(pool.remove(5).expect("removes").messages_received(), 1);
        assert_eq!(pool.len(), 63);
        assert!(pool.with_session(5, |_| ()).is_none());
    }

    #[test]
    fn concurrent_inserts_land_once_each() {
        use std::sync::Arc;
        let pool = Arc::new(SessionPool::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                let mut fresh = 0usize;
                for i in 0..256u64 {
                    let client = t * 256 + i;
                    if pool
                        .insert(client, SecureSession::new(&[9; 32], &[t as u8; 32]))
                        .is_fresh()
                    {
                        fresh += 1;
                    }
                }
                fresh
            }));
        }
        let fresh: usize = handles.into_iter().map(|h| h.join().expect("joins")).sum();
        assert_eq!(fresh, 4 * 256);
        assert_eq!(pool.len(), 4 * 256);
    }
}
