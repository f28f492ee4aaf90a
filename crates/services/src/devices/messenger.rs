//! Simulated messengers (stand-ins for the paper's mail server, Openfire
//! jabber server and Clickatell SMS gateway).
//!
//! `sendMessage(address, text) : (sent)` is the paper's canonical *active*
//! prototype: its effect "can not be canceled". The simulation makes that
//! effect observable: every delivery is appended to a shared, inspectable
//! outbox — the reproduction's equivalent of checking the phone and the
//! mail client in §5.2.

use std::sync::Arc;

use serena_core::sync::Mutex;

use serena_core::prototype::{examples as protos, Prototype};
use serena_core::service::Service;
use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_core::value::Value;

/// Transport flavour — affects only labelling and address validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessengerKind {
    /// SMTP-style: addresses must contain `@`.
    Email,
    /// XMPP-style: addresses must contain `@`.
    Jabber,
    /// SMS gateway: addresses must be numeric (`+` prefix allowed).
    Sms,
}

impl MessengerKind {
    fn accepts(&self, address: &str) -> bool {
        match self {
            MessengerKind::Email | MessengerKind::Jabber => address.contains('@'),
            MessengerKind::Sms => {
                let digits = address.strip_prefix('+').unwrap_or(address);
                !digits.is_empty() && digits.chars().all(|c| c.is_ascii_digit())
            }
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            MessengerKind::Email => "email",
            MessengerKind::Jabber => "jabber",
            MessengerKind::Sms => "sms",
        }
    }
}

/// One delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentMessage {
    /// Logical instant of delivery.
    pub at: Instant,
    /// Transport used.
    pub via: MessengerKind,
    /// Destination address.
    pub address: String,
    /// Message body.
    pub text: String,
    /// Attached photo size in bytes (0 = no attachment). §5.2 extends
    /// `contacts` "with an additional attribute allowing to send a picture
    /// with a message" — this is the delivery-side record of it.
    pub attachment_bytes: usize,
}

/// The photo-capable prototype of §5.2's full scenario:
/// `sendPhotoMessage(address, text, photo) : (sent)` — active.
pub fn send_photo_message_prototype() -> Arc<Prototype> {
    Prototype::declare(
        "sendPhotoMessage",
        &[
            ("address", serena_core::value::DataType::Str),
            ("text", serena_core::value::DataType::Str),
            ("photo", serena_core::value::DataType::Blob),
        ],
        &[("sent", serena_core::value::DataType::Bool)],
        true,
    )
    .expect("valid prototype")
}

/// A simulated messenger service with an inspectable outbox.
pub struct SimMessenger {
    kind: MessengerKind,
    outbox: Arc<Mutex<Vec<SentMessage>>>,
}

impl SimMessenger {
    /// New messenger of the given kind with a fresh outbox.
    pub fn new(kind: MessengerKind) -> Self {
        SimMessenger {
            kind,
            outbox: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Wrap into a shareable [`Service`], returning the outbox handle too.
    pub fn into_service(self) -> (Arc<dyn Service>, Arc<Mutex<Vec<SentMessage>>>) {
        let outbox = Arc::clone(&self.outbox);
        (Arc::new(self), outbox)
    }
}

impl Service for SimMessenger {
    fn prototypes(&self) -> Vec<Arc<Prototype>> {
        vec![protos::send_message(), send_photo_message_prototype()]
    }

    fn invoke(
        &self,
        prototype: &Prototype,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, String> {
        let with_photo = match prototype.name() {
            "sendMessage" => false,
            "sendPhotoMessage" => true,
            other => {
                return Err(format!(
                    "{} messenger cannot serve {other}",
                    self.kind.label()
                ))
            }
        };
        let address = input
            .get(0)
            .and_then(|v| v.as_str())
            .ok_or("expects address STRING as first parameter")?;
        let text = input
            .get(1)
            .and_then(|v| v.as_str())
            .ok_or("expects text STRING as second parameter")?;
        let attachment_bytes = if with_photo {
            input
                .get(2)
                .and_then(|v| v.as_blob())
                .ok_or("sendPhotoMessage expects photo BLOB as third parameter")?
                .len()
        } else {
            0
        };
        let deliverable = self.kind.accepts(address);
        if deliverable {
            self.outbox.lock().push(SentMessage {
                at,
                via: self.kind,
                address: address.to_string(),
                text: text.to_string(),
                attachment_bytes,
            });
        }
        // `sent` reports the delivery outcome; an unroutable address is a
        // result, not an invocation error.
        Ok(vec![Tuple::new(vec![Value::Bool(deliverable)])])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serena_core::tuple;

    #[test]
    fn email_delivery_recorded() {
        let (svc, outbox) = SimMessenger::new(MessengerKind::Email).into_service();
        let out = svc
            .invoke(
                &protos::send_message(),
                &tuple!["nicolas@elysee.fr", "Bonjour!"],
                Instant(3),
            )
            .unwrap();
        assert_eq!(out[0][0], Value::Bool(true));
        let sent = outbox.lock();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].address, "nicolas@elysee.fr");
        assert_eq!(sent[0].text, "Bonjour!");
        assert_eq!(sent[0].at, Instant(3));
    }

    #[test]
    fn invalid_address_reports_sent_false() {
        let (svc, outbox) = SimMessenger::new(MessengerKind::Email).into_service();
        let out = svc
            .invoke(
                &protos::send_message(),
                &tuple!["not-an-address", "hi"],
                Instant(0),
            )
            .unwrap();
        assert_eq!(out[0][0], Value::Bool(false));
        assert!(outbox.lock().is_empty());
    }

    #[test]
    fn sms_requires_numeric_addresses() {
        let kind = MessengerKind::Sms;
        assert!(kind.accepts("+33612345678"));
        assert!(kind.accepts("0612345678"));
        assert!(!kind.accepts("carla@elysee.fr"));
        assert!(!kind.accepts("+"));
    }

    #[test]
    fn wrong_prototype_rejected() {
        let (svc, _) = SimMessenger::new(MessengerKind::Jabber).into_service();
        assert!(svc
            .invoke(&protos::get_temperature(), &Tuple::empty(), Instant(0))
            .is_err());
    }

    #[test]
    fn photo_message_records_attachment() {
        let (svc, outbox) = SimMessenger::new(MessengerKind::Email).into_service();
        let photo = Value::blob(vec![0u8; 128]);
        let out = svc
            .invoke(
                &send_photo_message_prototype(),
                &Tuple::new(vec![
                    Value::str("carla@elysee.fr"),
                    Value::str("alert"),
                    photo,
                ]),
                Instant(2),
            )
            .unwrap();
        assert_eq!(out[0][0], Value::Bool(true));
        let sent = outbox.lock();
        assert_eq!(sent[0].attachment_bytes, 128);
        // missing photo is an invocation error
        assert!(svc
            .invoke(
                &send_photo_message_prototype(),
                &tuple!["carla@elysee.fr", "alert"],
                Instant(2),
            )
            .is_err());
    }

    #[test]
    fn outbox_accumulates_in_order() {
        let (svc, outbox) = SimMessenger::new(MessengerKind::Jabber).into_service();
        for (i, who) in ["a@x", "b@x", "c@x"].iter().enumerate() {
            svc.invoke(
                &protos::send_message(),
                &tuple![*who, "msg"],
                Instant(i as u64),
            )
            .unwrap();
        }
        let addrs: Vec<String> = outbox.lock().iter().map(|m| m.address.clone()).collect();
        assert_eq!(addrs, vec!["a@x", "b@x", "c@x"]);
    }
}
