//! The client side: connects, submits jobs as printed C source, and
//! collects the streamed verdicts with strict cross-checking — a verdict
//! that is out of range, duplicated, or mislabeled, or a batch that closes
//! short, is a typed error, never silently wrong data.

use crate::engine::Job;
use crate::service::wire::{
    check_magic, encode_submit, encode_submit_generate, read_message, write_frame, write_message,
    Message, ServiceStatus, VerdictFrame, WIRE_MAGIC, WIRE_VERSION, WRITE_BUFFER_BYTES,
};
use crate::service::ServiceError;
use lv_cir::ast::Function;
use lv_cir::print_function_into;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One server-side generation request: the daemon samples `k` completions
/// for `scalar` with per-cell seeds derived from `seed` and verifies them
/// overlapped, streaming back `k` verdicts labeled `label#0` … `label#k-1`.
#[derive(Debug, Clone)]
pub struct GenerationRequest {
    /// Label prefix for the generated jobs.
    pub label: String,
    /// The scalar kernel to generate candidates for.
    pub scalar: Function,
    /// Completions to sample.
    pub k: u32,
    /// Base RNG seed the per-cell seeds derive from.
    pub seed: u64,
}

/// A connection to a [`VerificationService`](crate::VerificationService).
///
/// Outgoing frames go through one bounded buffered writer: a batch's
/// `Submit` frames queue in it and leave with its `Run` in a single flush
/// (or in a few writes, when the batch outgrows the buffer), not in one
/// `write` syscall per frame.
///
/// Each job is printed into two text buffers the client keeps, its
/// `Submit` payload is encoded from those borrowed texts into a payload
/// buffer it also keeps, and the frame is written from there into the
/// buffered writer. Once the buffers have grown to the largest job, a
/// resubmitted batch allocates nothing per job on its way out, and the
/// verdicts are checked against the jobs' own labels.
#[derive(Debug)]
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    fingerprint: u64,
    /// The printed scalar of the job being framed.
    scalar_text: String,
    /// The printed candidate of the job being framed.
    candidate_text: String,
    /// The payload of the frame being written.
    payload: Vec<u8>,
}

impl ServiceClient {
    /// Connects and performs the magic + hello handshake, failing with a
    /// typed error on a protocol or version mismatch.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<ServiceClient, ServiceError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::with_capacity(WRITE_BUFFER_BYTES, stream);
        writer.write_all(&WIRE_MAGIC)?;
        write_message(
            &mut writer,
            &Message::Hello {
                version: WIRE_VERSION,
            },
        )?;
        writer.flush()?;
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        check_magic(&magic)?;
        let fingerprint = match read_message(&mut reader)? {
            Some(Message::ServerHello {
                version: WIRE_VERSION,
                fingerprint,
            }) => fingerprint,
            Some(Message::ServerHello { version, .. }) => {
                return Err(crate::service::WireError::VersionMismatch {
                    theirs: version,
                    ours: WIRE_VERSION,
                }
                .into())
            }
            Some(Message::Error { detail }) => return Err(ServiceError::Remote(detail)),
            Some(other) => {
                return Err(ServiceError::Protocol(format!(
                    "expected server hello, got {:?}",
                    other
                )))
            }
            None => {
                return Err(ServiceError::Protocol(
                    "server closed during handshake".into(),
                ))
            }
        };
        Ok(ServiceClient {
            reader,
            writer,
            fingerprint,
            scalar_text: String::new(),
            candidate_text: String::new(),
            payload: Vec::new(),
        })
    }

    /// The server engine configuration's semantic fingerprint, from the
    /// handshake.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Submits `jobs` and blocks until every verdict arrived, returning
    /// them in submission order. Each job is printed and framed in place
    /// (see [`ServiceClient`]); the `Submit` frames are buffered and sent
    /// with the closing `Run` in one flush. The stream is cross-checked
    /// frame by frame: an out-of-range index, a duplicate slot, a label
    /// that does not match the submitted job, a short batch, or a
    /// mid-batch close each fail with a typed error.
    pub fn submit(&mut self, jobs: &[Job]) -> Result<Vec<VerdictFrame>, ServiceError> {
        for job in jobs {
            self.scalar_text.clear();
            print_function_into(&job.scalar, &mut self.scalar_text);
            self.candidate_text.clear();
            print_function_into(&job.candidate, &mut self.candidate_text);
            self.payload.clear();
            encode_submit(
                &mut self.payload,
                &job.label,
                &self.scalar_text,
                &self.candidate_text,
            );
            write_frame(&mut self.writer, &self.payload)?;
        }
        self.run_and_collect(jobs.len(), |index| &jobs[index].label)
    }

    /// Submits generation requests and blocks until every generated
    /// candidate's verdict arrived, in slot order (request order, `k`
    /// slots per request labeled `label#j`). Generation and verification
    /// overlap on the daemon; the frames are buffered and the stream is
    /// cross-checked like [`submit`](Self::submit).
    pub fn submit_generation(
        &mut self,
        requests: &[GenerationRequest],
    ) -> Result<Vec<VerdictFrame>, ServiceError> {
        let mut expected = Vec::new();
        for request in requests {
            self.scalar_text.clear();
            print_function_into(&request.scalar, &mut self.scalar_text);
            self.payload.clear();
            encode_submit_generate(
                &mut self.payload,
                &request.label,
                &self.scalar_text,
                request.k,
                request.seed,
            );
            write_frame(&mut self.writer, &self.payload)?;
            for j in 0..request.k {
                expected.push(format!("{}#{}", request.label, j));
            }
        }
        self.run_and_collect(expected.len(), |index| &expected[index])
    }

    /// Sends [`Message::Run`] over `count` slots, flushing every buffered
    /// frame of the batch with it, and collects the streamed verdicts,
    /// strictly cross-checked frame by frame against `label(index)`, the
    /// label slot `index` was submitted under: an out-of-range index, a
    /// duplicate slot, a label that does not match the slot's, a short
    /// batch, or a mid-batch close each fail with a typed error.
    fn run_and_collect<'a>(
        &mut self,
        count: usize,
        label: impl Fn(usize) -> &'a str,
    ) -> Result<Vec<VerdictFrame>, ServiceError> {
        write_message(
            &mut self.writer,
            &Message::Run {
                count: count as u32,
            },
        )?;
        self.writer.flush()?;

        let mut slots: Vec<Option<VerdictFrame>> = vec![None; count];
        loop {
            match read_message(&mut self.reader)? {
                Some(Message::Verdict(frame)) => {
                    let index = frame.index as usize;
                    if index >= count {
                        return Err(ServiceError::Protocol(format!(
                            "verdict index {} out of range for a {}-job batch",
                            index, count
                        )));
                    }
                    let label = label(index);
                    if frame.label != label {
                        return Err(ServiceError::Protocol(format!(
                            "verdict {} labeled '{}' but job {} is '{}'",
                            index, frame.label, index, label
                        )));
                    }
                    if slots[index].is_some() {
                        return Err(ServiceError::Protocol(format!(
                            "duplicate verdict for job {} ('{}')",
                            index, frame.label
                        )));
                    }
                    slots[index] = Some(frame);
                }
                Some(Message::Done { count: sent }) => {
                    if sent as usize != count {
                        return Err(ServiceError::Protocol(format!(
                            "batch closed with {} verdict(s), {} submitted",
                            sent, count
                        )));
                    }
                    break;
                }
                Some(Message::Error { detail }) => return Err(ServiceError::Remote(detail)),
                Some(other) => {
                    return Err(ServiceError::Protocol(format!(
                        "unexpected server message {:?}",
                        other
                    )))
                }
                None => {
                    return Err(ServiceError::Protocol(
                        "server closed the connection mid-batch".into(),
                    ))
                }
            }
        }
        let mut verdicts = Vec::with_capacity(count);
        for (index, slot) in slots.into_iter().enumerate() {
            verdicts.push(slot.ok_or_else(|| {
                ServiceError::Protocol(format!("no verdict arrived for job {}", index))
            })?);
        }
        Ok(verdicts)
    }

    /// Fetches the daemon's live counters.
    pub fn status(&mut self) -> Result<ServiceStatus, ServiceError> {
        write_message(&mut self.writer, &Message::Status)?;
        self.writer.flush()?;
        match read_message(&mut self.reader)? {
            Some(Message::StatusReport(status)) => Ok(status),
            Some(Message::Error { detail }) => Err(ServiceError::Remote(detail)),
            Some(other) => Err(ServiceError::Protocol(format!(
                "expected status report, got {:?}",
                other
            ))),
            None => Err(ServiceError::Protocol(
                "server closed before the status report".into(),
            )),
        }
    }

    /// Asks the daemon to shut down and waits for the acknowledgement,
    /// consuming the connection.
    pub fn shutdown(mut self) -> Result<(), ServiceError> {
        write_message(&mut self.writer, &Message::Shutdown)?;
        self.writer.flush()?;
        match read_message(&mut self.reader)? {
            Some(Message::ShutdownAck) => Ok(()),
            Some(Message::Error { detail }) => Err(ServiceError::Remote(detail)),
            Some(other) => Err(ServiceError::Protocol(format!(
                "expected shutdown ack, got {:?}",
                other
            ))),
            None => Err(ServiceError::Protocol(
                "server closed before acknowledging shutdown".into(),
            )),
        }
    }
}
